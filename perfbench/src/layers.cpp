// The traced run (--trace 1): per-layer numbers from spans the benchmark
// records around the public calls of each module, plus counts from the
// deltas of the global MetricsRegistry around those calls.
//
//   setup     a replay of the SvaFlow constructor through its public free
//             functions, SizedLibrary, and a warm start from a primed
//             snapshot;
//   sweep     a serial pass over each circuit's public stages, then whole
//             run_analyze_job sweeps on the workload's pool;
//   eco       SSTA engine build / propagation / criticality and the two
//             EcoOptimizer runs per circuit;
//   daemon    unloaded hit/miss probes, then a short closed loop of the mix;
//   overhead  the named workload's loop untraced, then traced.
//
// Deeper calls use default arguments only.  A counter or histogram the
// program no longer has is reported as absent (null), never as a failure.

#include <cmath>
#include <cstdio>
#include <ctime>
#include <limits>
#include <optional>

#include "cell/characterize.hpp"
#include "cell/context_library.hpp"
#include "cell/library.hpp"
#include "cell/library_opc.hpp"
#include "core/scales.hpp"
#include "engine/batch.hpp"
#include "litho/cd_model.hpp"
#include "netlist/iscas85.hpp"
#include "opc/engine.hpp"
#include "opc/pitch_table.hpp"
#include "opt/eco.hpp"
#include "place/context.hpp"
#include "ssta/criticality.hpp"
#include "ssta/propagate.hpp"
#include "util/metrics.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr int kColdReplays = 3;
constexpr int kWarmStarts = 5;
constexpr int kStagePasses = 3;
constexpr int kSweeps = 20;
constexpr double kDaemonLoopSeconds = 4.0;

double nan() { return std::numeric_limits<double>::quiet_NaN(); }

double ratio(double num, double den) { return den > 0.0 ? num / den : nan(); }

double mean(const std::vector<double>& v) {
  if (v.empty()) return nan();
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double cpu_seconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

/// Current value of a registry counter, or nullopt when it does not exist.
std::optional<double> counter(const std::string& name) {
  for (const sva::MetricSample& s : sva::MetricsRegistry::global().snapshot())
    if (!s.is_timer && s.name == name) return static_cast<double>(s.count);
  return std::nullopt;
}

/// Counter delta over an interval: absent when the counter never existed.
struct CounterDelta {
  std::string name;
  std::optional<double> before;
  explicit CounterDelta(std::string n) : name(std::move(n)), before(counter(name)) {}
  std::optional<double> delta() const {
    const std::optional<double> after = counter(name);
    if (!after) return std::nullopt;
    return *after - before.value_or(0.0);
  }
};

std::optional<double> delta_ratio(const CounterDelta& num,
                                  const CounterDelta& den_a,
                                  const CounterDelta* den_b = nullptr) {
  const auto n = num.delta();
  const auto a = den_a.delta();
  if (!n || !a) return std::nullopt;
  double den = *a;
  if (den_b != nullptr) {
    const auto b = den_b->delta();
    if (!b) return std::nullopt;
    den += *b;
  }
  return den > 0.0 ? std::optional<double>(*n / den) : std::nullopt;
}

using Buckets = std::array<std::uint64_t, sva::LogHistogram::kBuckets>;

std::optional<Buckets> histogram(const std::string& name) {
  for (const auto& h : sva::MetricsRegistry::global().snapshot_histograms())
    if (h.name == name) return h.buckets;
  return std::nullopt;
}

/// Percentile of a log2-bucket histogram delta, interpolated linearly
/// inside the bucket that holds it (bucket i spans [2^(i-1), 2^i) ms).
std::optional<double> histogram_percentile(const std::optional<Buckets>& before,
                                           const std::optional<Buckets>& after,
                                           double p) {
  if (!after) return std::nullopt;
  Buckets d{};
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < d.size(); ++i) {
    d[i] = (*after)[i] - (before ? (*before)[i] : 0);
    total += d[i];
  }
  if (total == 0) return std::nullopt;
  const double target = p * static_cast<double>(total);
  double cum = 0.0;
  for (std::size_t i = 0; i < d.size(); ++i) {
    if (d[i] == 0) continue;
    if (cum + d[i] >= target) {
      if (i == 0) return 0.0;
      const double lo = static_cast<double>(sva::LogHistogram::bucket_floor(i));
      return lo + lo * (target - cum) / static_cast<double>(d[i]);
    }
    cum += d[i];
  }
  return static_cast<double>(sva::LogHistogram::bucket_floor(d.size() - 1));
}

void put(MetricSet& m, const std::string& name, std::optional<double> v,
         const std::string& unit) {
  if (v && std::isfinite(*v))
    m.add(name, *v, unit);
  else
    m.absent(name, unit);
}

template <class F>
auto traced(Tracer& tracer, const char* name, std::uint64_t op, F&& f) {
  SpanScope span(tracer, name, op);
  return f();
}

/// Median over passes of the summed self time of spans called `name`; a
/// pass is `ops_per_pass` consecutive op ids (one circuit replay each).
double per_pass_ms(const std::vector<Span>& spans,
                   const std::vector<double>& self, const std::string& name,
                   std::uint64_t ops_per_pass) {
  std::map<std::uint64_t, double> by_pass;
  for (std::size_t i = 0; i < spans.size(); ++i)
    if (spans[i].name == name) by_pass[spans[i].op / ops_per_pass] += self[i];
  std::vector<double> v;
  for (const auto& [pass, ms] : by_pass) v.push_back(ms);
  return median(v);
}

// --- setup ---------------------------------------------------------------

void setup_layers(Tracer& tracer, MetricSet& m) {
  const sva::FlowConfig cfg;
  const sva::Nm gl = cfg.cell_tech.gate_length;
  for (int rep = 0; rep < kColdReplays; ++rep) {
    SpanScope root(tracer, "setup.replay", rep);
    const sva::CellLibrary lib = traced(tracer, "cell.build_library", rep, [&] {
      return sva::build_standard_library(cfg.cell_tech);
    });
    const sva::CharacterizedLibrary ch = traced(
        tracer, "cell.characterize", rep,
        [&] { return sva::characterize_library(lib, cfg.electrical); });
    std::optional<sva::LithoProcess> wafer, model;
    traced(tracer, "litho.calibrate", rep, [&] {
      wafer.emplace(cfg.wafer_optics, gl, gl + cfg.anchor_spacing);
      model.emplace(cfg.opc_model_optics, gl, gl + cfg.anchor_spacing);
      return 0;
    });
    std::optional<sva::OpcEngine> engine;
    traced(tracer, "opc.engine_build", rep, [&] {
      engine.emplace(*model, *wafer, cfg.opc);
      return 0;
    });
    std::vector<sva::LibraryOpcCellResult> opc = traced(
        tracer, "opc.library_opc", rep,
        [&] { return sva::library_opc_all(lib.masters(), *engine); });
    const std::vector<sva::PostOpcPitchPoint> points =
        traced(tracer, "opc.pitch_characterize", rep, [&] {
          return sva::characterize_post_opc_pitch(*wafer, *engine, gl,
                                                  cfg.table_spacings);
        });
    traced(tracer, "cell.context_library", rep, [&] {
      const sva::TableCdModel boundary(gl, sva::post_opc_spacing_table(points),
                                       cfg.cell_tech.radius_of_influence);
      const sva::ContextLibrary context(ch, opc, boundary, cfg.bins);
      return 0;
    });
  }
  for (int rep = 0; rep < kColdReplays; ++rep) {
    std::unique_ptr<sva::SvaFlow> flow = traced(tracer, "core.cold_setup", rep, [&] {
      return make_cold_flow("layers-cold-" + std::to_string(rep));
    });
    traced(tracer, "opt.sized_library", rep, [&] { return make_sized(*flow); });
  }
  // Warm CLI start: a snapshot primed by one cold run, then reused.
  sva::FlowConfig warm_cfg;
  warm_cfg.cache_dir = "layers-cold-0";
  bool all_warm = true;
  for (int rep = 0; rep < kWarmStarts; ++rep) {
    const sva::SvaFlow warm = traced(tracer, "core.warm_setup", rep,
                                     [&] { return sva::SvaFlow(warm_cfg); });
    all_warm = all_warm && warm.setup_from_cache();
  }
  if (!all_warm)
    std::printf("# core.warm_setup: the snapshot was not used (cold starts)\n");

  const std::vector<Span> spans = tracer.spans();
  const std::vector<double> self = self_times_ms(spans);
  auto med = [&](const char* name) { return median(self_ms_of(spans, self, name)); };
  m.add("cell.characterize_ms", med("cell.characterize"), "ms");
  m.add("litho.calibrate_ms", med("litho.calibrate"), "ms");
  m.add("opc.library_opc_ms", med("opc.library_opc"), "ms");
  m.add("opc.pitch_characterize_ms", med("opc.pitch_characterize"), "ms");
  m.add("cell.context_library_ms", med("cell.context_library"), "ms");
  m.add("opt.sized_library_ms", med("opt.sized_library"), "ms");
  m.add("core.cold_setup_ms", med("core.cold_setup"), "ms");
  m.add("core.warm_setup_ms", med("core.warm_setup"), "ms");
}

// --- table2_sweep stages -------------------------------------------------

void sweep_layers(const sva::SvaFlow& flow, const References& refs,
                  Tracer& tracer, Tally& tally, MetricSet& m) {
  const std::vector<std::string>& circuits = table2_circuits();
  const std::size_t nc = circuits.size();
  const sva::Nm l_nom = flow.config().cell_tech.gate_length;
  const sva::CdBudget& budget = flow.config().budget;
  // Per circuit: serial generate + place + analyze, i.e. one batch job.
  std::map<std::string, std::vector<double>> job_ms;
  for (int pass = 0; pass < kStagePasses; ++pass) {
    for (std::size_t ci = 0; ci < nc; ++ci) {
      const std::string& c = circuits[ci];
      const std::uint64_t op = pass * nc + ci;
      SpanScope root(tracer, "table2.circuit", op);
      const auto j0 = Clock::now();
      const sva::Netlist netlist = traced(tracer, "netlist.generate", op,
                                          [&] { return flow.make_benchmark(c); });
      const sva::Placement placement = traced(
          tracer, "place.placement", op, [&] { return flow.make_placement(netlist); });
      double job = ms_since(j0);
      const auto a0 = Clock::now();
      const sva::CircuitAnalysis analysis = traced(
          tracer, "core.analyze", op, [&] { return flow.analyze(netlist, placement); });
      job += ms_since(a0);
      job_ms[c].push_back(job);

      // The stages analyze runs, replayed one by one.
      std::vector<sva::InstanceNps> nps;
      std::vector<sva::VersionKey> versions;
      traced(tracer, "place.nps", op, [&] {
        nps = sva::extract_nps(placement);
        versions = sva::assign_versions(nps, flow.config().bins);
        return 0;
      });
      const auto annotations = traced(tracer, "core.annotate", op, [&] {
        return sva::annotate_arcs(netlist, flow.context_library(), versions,
                                  budget, flow.config().arc_policy, 0.0, &nps);
      });
      std::optional<sva::MatrixScale> nom, bc, wc;
      traced(tracer, "core.corner_factors", op, [&] {
        nom.emplace(sva::corner_factors(netlist, annotations, budget,
                                        sva::Corner::Nominal));
        bc.emplace(sva::corner_factors(netlist, annotations, budget,
                                       sva::Corner::Best));
        wc.emplace(sva::corner_factors(netlist, annotations, budget,
                                       sva::Corner::Worst));
        return 0;
      });
      const sva::Sta sta = traced(tracer, "sta.compile", op, [&] {
        return sva::Sta(netlist, flow.characterized(), flow.config().sta);
      });
      const sva::UnitScale trad_nom;
      const sva::TraditionalCornerScale trad_bc(l_nom, budget, sva::Corner::Best);
      const sva::TraditionalCornerScale trad_wc(l_nom, budget, sva::Corner::Worst);
      const sva::ArcScaleProvider* scales[6] = {&trad_nom, &trad_bc, &trad_wc,
                                                &*nom, &*bc, &*wc};
      const double expect[6] = {analysis.trad_nom_ps, analysis.trad_bc_ps,
                                analysis.trad_wc_ps, analysis.sva_nom_ps,
                                analysis.sva_bc_ps, analysis.sva_wc_ps};
      bool same = true;
      for (int k = 0; k < 6; ++k) {
        const double d = traced(tracer, "sta.run", op, [&] {
          return sta.run(*scales[k]).critical_delay_ps;
        });
        same = same && d == expect[k];
      }
      if (pass == 0)
        tally.check(same, "stage replay of " + c + " differs from SvaFlow::analyze");
    }
  }

  // Whole sweeps on the workload's pool, and the batch alone beside them.
  SweepWorkload sweep(flow, refs, tally, tracer);
  sweep.op(0, circuits);  // lazy fills
  CounterDelta hits("context_cache.hits"), misses("context_cache.misses");
  std::vector<double> sweep_ms, batch_ms;
  double wall_total = 0.0, cpu_total = 0.0;
  for (int i = 0; i < kSweeps; ++i) {
    const double c0 = cpu_seconds();
    const auto t0 = Clock::now();
    sweep.op(1 + i, circuits);
    const double ms = ms_since(t0);
    cpu_total += cpu_seconds() - c0;
    wall_total += ms / 1000.0;
    sweep_ms.push_back(ms);
    const sva::BatchRunner runner(flow, sweep.pool());
    const auto b0 = Clock::now();
    traced(tracer, "engine.batch", 1 + i, [&] { return runner.run_names(circuits); });
    batch_ms.push_back(ms_since(b0));
  }

  const std::vector<Span> spans = tracer.spans();
  const std::vector<double> self = self_times_ms(spans);
  for (const char* stage : {"netlist.generate", "place.placement", "place.nps",
                            "core.annotate", "core.corner_factors",
                            "sta.compile"})
    m.add(std::string(stage) + "_ms", per_pass_ms(spans, self, stage, nc), "ms");
  m.add("sta.run_ms", median(self_ms_of(spans, self, "sta.run")), "ms");
  m.add("core.analyze_self_ms", per_pass_ms(spans, self, "core.analyze", nc), "ms");
  const double sweep_med = median(sweep_ms);
  m.add("jobs.analyze_render_ms", sweep_med - median(batch_ms), "ms");
  double serial_sum = 0.0;
  for (const std::string& c : circuits) serial_sum += median(job_ms[c]);
  const double threads = static_cast<double>(kSweepThreads);
  m.add("engine.sweep_efficiency", serial_sum / (sweep_med * threads), "ratio");
  m.add("engine.cpu_util", cpu_total / (wall_total * threads), "ratio");
  m.add("engine.largest_job_share", median(job_ms["C7552"]) / sweep_med, "ratio");
  put(m, "context_cache.hit_ratio", delta_ratio(hits, hits, &misses), "ratio");
}

// --- eco_ssta layers -----------------------------------------------------

void eco_layers(const sva::SvaFlow& flow, const sva::SizedLibrary& sized,
                const References& refs, Tracer& tracer, Tally& tally,
                MetricSet& m) {
  CounterDelta touched("sta.kernel.incremental_gates_touched");
  CounterDelta total("sta.kernel.incremental_gates_total");
  std::vector<double> candidates_per_op;
  double candidates = 0.0, moves = 0.0, eco_seconds = 0.0;
  std::uint64_t op = 0;
  for (const std::string& c : eco_circuits()) {
    ++op;
    SpanScope root(tracer, "eco.circuit", op);
    const sva::Netlist netlist = flow.make_benchmark(c);
    const sva::Placement placement = flow.make_placement(netlist);
    const std::vector<sva::VersionKey> versions = flow.bind_versions(placement);
    std::optional<sva::SstaEngine> engine;
    traced(tracer, "ssta.engine_build", op, [&] {
      engine.emplace(netlist, flow.characterized(), flow.context_library(),
                     versions, ssta_model(flow));
      return 0;
    });
    const sva::SstaResult ssta =
        traced(tracer, "ssta.propagate", op, [&] { return engine->run(); });
    traced(tracer, "ssta.criticality", op,
           [&] { return sva::compute_criticality(netlist, ssta); });
    const SstaRef* sref = refs.ssta(c);
    tally.check(sref != nullptr && same_at(ssta.critical.mean_ps, sref->mean_ps, 3) &&
                    same_at(ssta.critical.sigma_ps(), sref->sigma_ps, 3),
                "traced ssta " + c + " differs from ssta.csv");

    double clock = 0.0;
    double op_candidates = 0.0;
    for (const sva::EcoCornerMode mode :
         {sva::EcoCornerMode::SvaWorst, sva::EcoCornerMode::TraditionalWorst}) {
      const bool is_sva = mode == sva::EcoCornerMode::SvaWorst;
      std::optional<sva::EcoOptimizer> optimizer;
      traced(tracer, "opt.optimizer_build", op, [&] {
        optimizer.emplace(sized, sva::generate_iscas85_like(c, sized.library()),
                          flow.config().placement,
                          eco_config(flow, mode, clock));
        return 0;
      });
      const auto t0 = Clock::now();
      const sva::EcoResult r =
          traced(tracer, is_sva ? "opt.eco_run_sva" : "opt.eco_run_trad", op,
                 [&] { return optimizer->run(); });
      eco_seconds += ms_since(t0) / 1000.0;
      if (is_sva) clock = r.clock_period_ps;
      op_candidates += static_cast<double>(r.candidates_evaluated);
      moves += static_cast<double>(r.moves_committed());
      const EcoRef* eref = refs.eco(c, is_sva ? "sva" : "trad");
      tally.check(eref != nullptr && r.moves_committed() == eref->moves &&
                      r.candidates_evaluated == eref->candidates &&
                      same_at(r.final_worst_slack_ps, eref->final_ws_ps, 3),
                  "traced eco " + c + " differs from eco.csv");
    }
    candidates += op_candidates;
    candidates_per_op.push_back(op_candidates);
  }

  const std::vector<Span> spans = tracer.spans();
  const std::vector<double> self = self_times_ms(spans);
  for (const char* stage : {"ssta.engine_build", "ssta.propagate",
                            "ssta.criticality", "opt.eco_run_sva",
                            "opt.eco_run_trad"})
    m.add(std::string(stage) + "_ms", mean(self_ms_of(spans, self, stage)), "ms");
  // Two optimizer builds per op.
  m.add("opt.optimizer_build_ms",
        2.0 * mean(self_ms_of(spans, self, "opt.optimizer_build")), "ms");
  m.add("opt.candidates_per_op", mean(candidates_per_op), "count");
  m.add("opt.candidates_per_s", ratio(candidates, eco_seconds), "1/s");
  m.add("opt.commit_ratio", ratio(moves, candidates), "ratio");
  put(m, "sta.incremental_touched_ratio", delta_ratio(touched, total), "ratio");
}

// --- daemon_mix layers ---------------------------------------------------

void daemon_layers(const sva::SvaFlow& flow, const sva::SizedLibrary& sized,
                   const RunOptions& opt, Tracer& tracer, Tally& tally,
                   MetricSet& m) {
  DaemonWorkload w(flow, sized, tally, tracer, "layers.sock");
  w.warmup();

  // Unloaded probes with specs outside the mix: each is a miss, then a
  // hit; the miss overhead subtracts the direct run of the same spec.
  std::vector<MixRequest> probes;
  const std::vector<std::string> five = {"C432", "C499", "C880", "C1355", "C1908"};
  for (std::size_t k = 0; k < five.size(); ++k) {
    MixRequest a;
    a.kind = MixKind::Analyze;
    for (std::size_t j = 0; j < 4; ++j) a.analyze.circuits.push_back(five[(k + j) % 5]);
    a.key = "probe analyze " + std::to_string(k);
    probes.push_back(a);
    MixRequest s;
    s.kind = MixKind::Ssta;
    s.ssta.circuit = k % 2 == 0 ? "C432" : "C880";
    s.ssta.quantile = 0.99;
    s.ssta.clock_period_ps = 2000.0 + 100.0 * static_cast<double>(k);
    s.key = "probe ssta " + std::to_string(k);
    probes.push_back(s);
  }
  std::vector<double> connect_ms, hit_ms, overhead_ms;
  std::uint64_t op = 1000000;
  for (const MixRequest& p : probes) {
    const MixReply miss = w.send(p, op++);
    const MixReply hit = w.send(p, op++);
    std::vector<double> direct;
    for (int i = 0; i < 3; ++i) {
      const auto t0 = Clock::now();
      w.run_direct(p);
      direct.push_back(ms_since(t0));
    }
    const std::string& expect = w.direct_digest(p);
    tally.check(miss.delivered && miss.digest == expect && hit.delivered &&
                    hit.digest == expect,
                "daemon probe " + p.key + " differs from the direct run");
    connect_ms.push_back(miss.connect_ms);
    connect_ms.push_back(hit.connect_ms);
    hit_ms.push_back(hit.latency_ms);
    overhead_ms.push_back(miss.latency_ms - median(direct));
  }

  // A short closed loop of the mix for the queue, cache and wire counts.
  const std::optional<Buckets> wait0 = histogram("server.job.wait_ms");
  const std::optional<Buckets> run0 = histogram("server.job.run_ms");
  CounterDelta hits("server.result_cache.hits");
  CounterDelta misses("server.result_cache.misses");
  CounterDelta bytes_in("server.conn.bytes_in");
  CounterDelta bytes_out("server.conn.bytes_out");
  MixSequence sequence(opt.seed + 7919);
  const auto t0 = Clock::now();
  const std::vector<MixOutcome> outcomes = w.play(sequence, kDaemonLoopSeconds);
  const double wall_s = ms_since(t0) / 1000.0;
  const std::optional<Buckets> wait1 = histogram("server.job.wait_ms");
  const std::optional<Buckets> run1 = histogram("server.job.run_ms");
  const auto requests = static_cast<double>(outcomes.size());
  std::optional<double> bytes;
  if (const auto bi = bytes_in.delta(), bo = bytes_out.delta(); bi && bo)
    bytes = (*bi + *bo) / requests;
  double busy = 0.0;
  for (const MixOutcome& o : outcomes)
    if (o.reply.busy) busy += 1.0;
  w.verify(outcomes, wall_s);

  m.add("server.connect_ms", median(connect_ms), "ms");
  m.add("server.hit_rtt_ms", median(hit_ms), "ms");
  m.add("server.miss_overhead_ms", median(overhead_ms), "ms");
  put(m, "server.job.wait_p50_ms", histogram_percentile(wait0, wait1, 0.50), "ms");
  put(m, "server.job.wait_p99_ms", histogram_percentile(wait0, wait1, 0.99), "ms");
  put(m, "server.job.run_p50_ms", histogram_percentile(run0, run1, 0.50), "ms");
  put(m, "server.result_cache.hit_ratio", delta_ratio(hits, hits, &misses), "ratio");
  m.add("server.busy_ratio", busy / requests, "ratio");
  put(m, "server.bytes_per_request", bytes, "B");
  m.add("jobs.analyze_ms", median(w.direct_ms(MixKind::Analyze)), "ms");
  m.add("jobs.ssta_ms", median(w.direct_ms(MixKind::Ssta)), "ms");
  m.add("jobs.optimize_ms", median(w.direct_ms(MixKind::Optimize)), "ms");
}

// --- tracing overhead on the named workload ------------------------------

double workload_throughput(const RunOptions& opt, const Stack& stack,
                           const References& refs, Tally& tally,
                           Tracer& tracer, double seconds, std::uint64_t salt) {
  Rng rng(opt.seed * 1000003 + salt);
  if (opt.workload == "table2_sweep") {
    SweepWorkload w(*stack.flow, refs, tally, tracer);
    return w.loop(rng, seconds, /*warmup=*/3).throughput();
  }
  if (opt.workload == "eco_ssta") {
    EcoWorkload w(*stack.flow, *stack.sized, refs, tally, tracer);
    w.oracle();
    return w.loop(rng, seconds, /*warmup_rounds=*/1).throughput();
  }
  DaemonWorkload w(*stack.flow, *stack.sized, tally, tracer,
                   "overhead-" + std::to_string(salt) + ".sock");
  w.warmup();
  MixSequence sequence(opt.seed + salt);
  const auto t0 = Clock::now();
  const std::vector<MixOutcome> outcomes = w.play(sequence, seconds);
  return w.verify(outcomes, ms_since(t0) / 1000.0).throughput();
}

}  // namespace

void run_traced(const RunOptions& opt, const References& refs, Tally& tally,
                MetricSet& metrics) {
  Tracer tracer(true);
  setup_layers(tracer, metrics);
  Stack stack;
  stack.flow = make_cold_flow("layers-main");
  stack.sized = make_sized(*stack.flow);
  sweep_layers(*stack.flow, refs, tracer, tally, metrics);
  eco_layers(*stack.flow, *stack.sized, refs, tracer, tally, metrics);
  daemon_layers(*stack.flow, *stack.sized, opt, tracer, tally, metrics);

  Tracer off(false);
  const double half = opt.seconds / 2.0;
  const double untraced = workload_throughput(opt, stack, refs, tally, off, half, 1);
  const double with_spans =
      workload_throughput(opt, stack, refs, tally, tracer, half, 2);
  metrics.add("bench.trace_overhead_pct",
              100.0 * (untraced - with_spans) / untraced, "%");
  std::printf("# tracing overhead on %s: untraced %.4f/s, traced %.4f/s\n",
              opt.workload.c_str(), untraced, with_spans);

  const std::vector<Span> spans = tracer.spans();
  std::printf("# %-28s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms");
  for (const LayerRow& row : layer_table(spans))
    std::printf("# %-28s %8zu %12.3f %12.3f\n", row.name.c_str(), row.count,
                row.total_ms, row.self_ms);
  for (const auto& [name, value] : metrics.items())
    if (!std::isfinite(value.first))
      std::printf("# per-layer metric %s is absent\n", name.c_str());
  if (!opt.trace_out.empty()) {
    write_text(opt.trace_out, tracer.chrome_json(opt.header));
    std::printf("# wrote %s (%zu spans)\n", opt.trace_out.c_str(), spans.size());
  }
}

}  // namespace perfbench
