#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <stdexcept>
#include <sys/resource.h>

#include "opt/eco.hpp"
#include "server/client.hpp"
#include "server/protocol.hpp"
#include "server/socket.hpp"
#include "ssta/propagate.hpp"

namespace perfbench {

namespace {

std::string fmt(const char* format, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, format, v);
  return buf;
}

/// Closure row of one EcoOptimizer run, configured as run_optimize_job
/// configures it.
sva::EcoResult run_eco(const sva::SvaFlow& flow,
                       const sva::SizedLibrary& sized,
                       const std::string& circuit, sva::EcoCornerMode mode,
                       double clock_ps, sva::ThreadPool& pool) {
  sva::EcoOptimizer optimizer(
      sized, sva::generate_iscas85_like(circuit, sized.library()),
      flow.config().placement, eco_config(flow, mode, clock_ps));
  return optimizer.run(&pool);
}

bool eco_matches(const sva::EcoResult& r, const EcoRef* ref) {
  return ref != nullptr && same_at(r.clock_period_ps, ref->clock_ps, 2) &&
         r.moves_committed() == ref->moves &&
         r.candidates_evaluated == ref->candidates &&
         same_at(r.final_worst_slack_ps, ref->final_ws_ps, 3);
}

}  // namespace

const std::vector<std::string>& table2_circuits() {
  static const std::vector<std::string> names = {
      "C432", "C499", "C880", "C1355", "C1908",
      "C2670", "C3540", "C5315", "C6288", "C7552"};
  return names;
}

const std::vector<std::string>& eco_circuits() {
  static const std::vector<std::string> names = {"C432", "C880", "C1355"};
  return names;
}

const std::vector<std::string>& eco_oracle_circuits() {
  static const std::vector<std::string> names = {"C432", "C880", "C1355",
                                                 "C1908"};
  return names;
}

std::unique_ptr<sva::SvaFlow> make_cold_flow(const std::string& cache_dir) {
  std::filesystem::remove_all(cache_dir);
  std::filesystem::create_directories(cache_dir);
  sva::FlowConfig config;
  config.cache_dir = cache_dir;
  return std::make_unique<sva::SvaFlow>(config);
}

sva::EcoConfig eco_config(const sva::SvaFlow& flow, sva::EcoCornerMode mode,
                          double clock_ps) {
  sva::EcoConfig eco;
  eco.clock_period_ps = clock_ps;
  eco.mode = mode;
  eco.budget = flow.config().budget;
  eco.arc_policy = flow.config().arc_policy;
  eco.sta = flow.config().sta;
  return eco;
}

sva::SstaVariationModel ssta_model(const sva::SvaFlow& flow) {
  sva::SstaVariationModel model;
  model.budget = flow.config().budget;
  model.policy = flow.config().arc_policy;
  return model;
}

std::unique_ptr<sva::SizedLibrary> make_sized(const sva::SvaFlow& flow) {
  return std::make_unique<sva::SizedLibrary>(
      flow.library(), flow.config().electrical, flow.library_opc_results(),
      flow.boundary_model(), flow.config().bins);
}

double peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

// --- table2_sweep --------------------------------------------------------

SweepWorkload::SweepWorkload(const sva::SvaFlow& flow, const References& refs,
                             Tally& tally, Tracer& tracer)
    : flow_(flow), refs_(refs), tally_(tally), tracer_(tracer),
      pool_(kSweepThreads) {}

void SweepWorkload::oracle() {
  for (const Table2Ref& ref : refs_.table2()) {
    const sva::CircuitAnalysis a = flow_.analyze_benchmark(ref.circuit);
    const double got[7] = {a.trad_nom_ps, a.trad_bc_ps, a.trad_wc_ps,
                           a.sva_nom_ps,  a.sva_bc_ps,  a.sva_wc_ps};
    bool ok = a.gate_count == ref.gates;
    for (int i = 0; i < 6; ++i)
      ok = ok && same_at(got[i] / 1000.0, ref.values[i], 4);
    ok = ok && same_at(a.uncertainty_reduction(), ref.values[6], 4);
    tally_.check(ok, "table2 row " + ref.circuit + " differs from table2.csv");
    const double red = a.uncertainty_reduction();
    tally_.check(red >= 0.28 && red <= 0.40,
                 ref.circuit + " reduction " + fmt("%.4f", red) +
                     " outside the paper's 28-40% band");
    if (ref.circuit == refs_.anchor_circuit()) {
      const std::string row =
          fmt("%.3f", a.trad_nom_ps / 1000) + "/" +
          fmt("%.3f", a.trad_bc_ps / 1000) + "/" +
          fmt("%.3f", a.trad_wc_ps / 1000) + "/" +
          fmt("%.3f", a.sva_nom_ps / 1000) + "/" +
          fmt("%.3f", a.sva_bc_ps / 1000) + "/" +
          fmt("%.3f", a.sva_wc_ps / 1000) + "/" +
          fmt("%.1f%%", 100.0 * red);
      tally_.check(row == refs_.anchor(),
                   "anchor " + ref.circuit + " " + row + " != " + refs_.anchor());
    }
  }
}

bool SweepWorkload::op(std::uint64_t id,
                       const std::vector<std::string>& order) {
  sva::AnalyzeJobSpec spec;
  spec.circuits = order;
  sva::JobResult result;
  {
    SpanScope span(tracer_, "jobs.analyze", id);
    result = sva::run_analyze_job(flow_, pool_, spec, nullptr);
  }
  const std::string expect =
      reorder_analyze_digest(refs_.golden("analyze"), order);
  const bool ok = !expect.empty() && job_digest(result) == expect;
  tally_.check(ok, "table2_sweep op " + std::to_string(id) +
                       ": output differs from golden/analyze.txt");
  return ok;
}

LoopStats SweepWorkload::loop(Rng& rng, double seconds, int warmup) {
  std::vector<std::string> order = table2_circuits();
  for (int i = 0; i < warmup; ++i) {
    rng.shuffle(order);
    op(next_op_++, order);
  }
  LoopStats stats;
  const auto t0 = Clock::now();
  while (ms_since(t0) < seconds * 1000.0) {
    rng.shuffle(order);
    const auto ts = Clock::now();
    const bool ok = op(next_op_++, order);
    stats.latency_ms.push_back(ms_since(ts));
    if (ok) ++stats.good;
  }
  stats.wall_s = ms_since(t0) / 1000.0;
  return stats;
}

// --- eco_ssta ------------------------------------------------------------

EcoWorkload::EcoWorkload(const sva::SvaFlow& flow,
                         const sva::SizedLibrary& sized,
                         const References& refs, Tally& tally, Tracer& tracer)
    : flow_(flow), sized_(sized), refs_(refs), tally_(tally), tracer_(tracer),
      pool_(kEcoThreads) {}

void EcoWorkload::oracle() {
  for (const std::string& c : eco_oracle_circuits()) {
    const sva::Netlist netlist = flow_.make_benchmark(c);
    const sva::Placement placement = flow_.make_placement(netlist);
    const std::vector<sva::VersionKey> versions =
        flow_.bind_versions(placement);
    const sva::SstaEngine engine(netlist, flow_.characterized(),
                                 flow_.context_library(), versions,
                                 ssta_model(flow_));
    const sva::SstaResult ssta = engine.run();
    const SstaRef* ref = refs_.ssta(c);
    tally_.check(ref != nullptr &&
                     same_at(ssta.critical.mean_ps, ref->mean_ps, 3) &&
                     same_at(ssta.critical.sigma_ps(), ref->sigma_ps, 3),
                 "ssta " + c + " mean/sigma " +
                     fmt("%.3f", ssta.critical.mean_ps) + "/" +
                     fmt("%.3f", ssta.critical.sigma_ps()) +
                     " differ from ssta.csv");

    const sva::EcoResult sva_row = run_eco(
        flow_, sized_, c, sva::EcoCornerMode::SvaWorst, 0.0, pool_);
    clock_ps_[c] = sva_row.clock_period_ps;
    tally_.check(eco_matches(sva_row, refs_.eco(c, "sva")),
                 "eco " + c + " sva closure row differs from eco.csv");
    const sva::EcoResult trad_row =
        run_eco(flow_, sized_, c, sva::EcoCornerMode::TraditionalWorst,
                sva_row.clock_period_ps, pool_);
    tally_.check(eco_matches(trad_row, refs_.eco(c, "trad")),
                 "eco " + c + " trad closure row differs from eco.csv");
  }
}

double EcoWorkload::shared_clock_ps(const std::string& circuit) const {
  const auto it = clock_ps_.find(circuit);
  if (it == clock_ps_.end())
    throw std::runtime_error("eco oracle has not run for " + circuit);
  return it->second;
}

bool EcoWorkload::op(std::uint64_t id, const std::string& circuit) {
  sva::SstaJobSpec ssta;
  ssta.circuit = circuit;
  sva::OptimizeJobSpec sva_spec;
  sva_spec.circuit = circuit;
  sva::OptimizeJobSpec trad_spec = sva_spec;
  trad_spec.corner_mode = 1;
  trad_spec.clock_period_ps = shared_clock_ps(circuit);

  sva::JobResult r_ssta, r_sva, r_trad;
  {
    SpanScope span(tracer_, "jobs.ssta", id);
    r_ssta = sva::run_ssta_job(flow_, pool_, ssta, nullptr);
  }
  {
    SpanScope span(tracer_, "jobs.optimize", id);
    r_sva = sva::run_optimize_job(flow_, sized_, pool_, sva_spec, nullptr);
  }
  {
    SpanScope span(tracer_, "jobs.optimize", id);
    r_trad = sva::run_optimize_job(flow_, sized_, pool_, trad_spec, nullptr);
  }
  const bool ok = job_digest(r_ssta) == refs_.golden("ssta_" + circuit) &&
                  job_digest(r_sva) == refs_.golden("opt_sva_" + circuit) &&
                  job_digest(r_trad) == refs_.golden("opt_trad_" + circuit);
  tally_.check(ok, "eco_ssta op " + std::to_string(id) + " (" + circuit +
                       "): output differs from golden");
  return ok;
}

LoopStats EcoWorkload::loop(Rng& rng, double seconds, int warmup_rounds) {
  std::vector<std::string> order = eco_circuits();
  for (int r = 0; r < warmup_rounds; ++r) {
    rng.shuffle(order);
    for (const std::string& c : order) op(next_op_++, c);
  }
  LoopStats stats;
  const auto t0 = Clock::now();
  while (ms_since(t0) < seconds * 1000.0) {
    rng.shuffle(order);
    for (const std::string& c : order) {
      const auto ts = Clock::now();
      const bool ok = op(next_op_++, c);
      stats.latency_ms.push_back(ms_since(ts));
      if (ok) ++stats.good;
    }
  }
  stats.wall_s = ms_since(t0) / 1000.0;
  return stats;
}

// --- daemon_mix ----------------------------------------------------------

namespace {

const std::vector<std::string>& mix_analyze_circuits() {
  static const std::vector<std::string> names = {"C432", "C499", "C880",
                                                 "C1355", "C1908"};
  return names;
}

/// Every ordered list of 1-3 circuits (repeats allowed) x strict flag.
std::vector<sva::AnalyzeJobSpec> analyze_universe() {
  const auto& names = mix_analyze_circuits();
  std::vector<sva::AnalyzeJobSpec> out;
  std::vector<std::vector<std::string>> lists;
  for (const auto& a : names) lists.push_back({a});
  for (const auto& a : names)
    for (const auto& b : names) lists.push_back({a, b});
  for (const auto& a : names)
    for (const auto& b : names)
      for (const auto& c : names) lists.push_back({a, b, c});
  for (bool strict : {false, true})
    for (const auto& l : lists) {
      sva::AnalyzeJobSpec spec;
      spec.circuits = l;
      spec.strict = strict;
      out.push_back(spec);
    }
  return out;
}

std::string analyze_key(const sva::AnalyzeJobSpec& s) {
  std::string k = "analyze";
  for (const std::string& c : s.circuits) k += " " + c;
  return k + (s.strict ? " strict" : "");
}

std::string ssta_key(const sva::SstaJobSpec& s) {
  return "ssta " + s.circuit + " " + fmt("%.17g", s.clock_period_ps);
}

std::string optimize_key(const sva::OptimizeJobSpec& s) {
  return "optimize " + s.circuit + (s.corner_mode == 0 ? " sva" : " trad") +
         " moves " + std::to_string(s.max_moves);
}

std::string key_of(const MixRequest& r) {
  switch (r.kind) {
    case MixKind::Analyze:
      return analyze_key(r.analyze);
    case MixKind::Ssta:
      return ssta_key(r.ssta);
    case MixKind::Optimize:
      break;
  }
  return optimize_key(r.optimize);
}

/// The mix's optimize requests stop after two moves, which keeps their
/// compute small like the rest of the mix: a full traditional-corner C880
/// closure (9 moves, 1560 candidates) held a lane for ~50 ms and set the
/// whole tail.
constexpr std::size_t kMixOptimizeMoves = 2;

/// Kinds come in shuffled blocks of 20: 12 analyze, 5 ssta, 3 optimize.
constexpr std::size_t kKindBlock = 20;
constexpr std::size_t kAnalyzePerBlock = 12;
constexpr std::size_t kSstaPerBlock = 5;
/// Repeat coins of each kind come in shuffled blocks of 4.
constexpr std::size_t kCoinBlock = 4;

/// A repeat picks a spec of its kind drawn kMinAge to kWindow requests
/// ago: old enough to have completed (four in flight, ops under ~60 ms at
/// ~300 requests/s) and recent enough to sit in the 128-entry result
/// cache (~100 new specs per kWindow requests).
constexpr std::size_t kMinAge = 64;
constexpr std::size_t kWindow = 160;

sva::Frame frame_of(const MixRequest& req) {
  switch (req.kind) {
    case MixKind::Analyze:
      return {sva::MsgType::AnalyzeRequest,
              sva::encode_analyze_request({req.analyze, 0})};
    case MixKind::Ssta:
      return {sva::MsgType::SstaRequest,
              sva::encode_ssta_request({req.ssta, 0})};
    case MixKind::Optimize:
      break;
  }
  return {sva::MsgType::OptimizeRequest,
          sva::encode_optimize_request({req.optimize, 0})};
}

const char* kind_name(MixKind kind) {
  return kind == MixKind::Analyze ? "analyze"
         : kind == MixKind::Ssta  ? "ssta"
                                  : "optimize";
}

}  // namespace

MixSequence::MixSequence(std::uint64_t seed)
    : rng_(seed ^ 0x6d69785f6461656dull), universe_(analyze_universe()) {
  rng_.shuffle(universe_);
}

std::size_t MixSequence::take(std::vector<std::size_t>& block,
                              std::size_t& at,
                              const std::vector<std::size_t>& fresh) {
  if (at == block.size()) {
    block = fresh;
    rng_.shuffle(block);
    at = 0;
  }
  return block[at++];
}

MixDraw MixSequence::next() {
  const std::size_t now = drawn_++;
  static const std::vector<std::size_t> kinds = [] {
    std::vector<std::size_t> v(kKindBlock, 2);
    std::fill_n(v.begin(), kAnalyzePerBlock, 0);
    std::fill_n(v.begin() + kAnalyzePerBlock, kSstaPerBlock, 1);
    return v;
  }();
  static const std::vector<std::size_t> coins = [] {
    std::vector<std::size_t> v(kCoinBlock, 0);
    std::fill_n(v.begin(),
                static_cast<std::size_t>(std::llround(kDaemonRepeatShare * kCoinBlock)),
                1);
    return v;
  }();
  static const std::vector<std::size_t> two = {0, 1};
  static const std::vector<std::size_t> four = {0, 1, 2, 3};
  const char* const pair[2] = {"C432", "C880"};

  const auto kind = static_cast<MixKind>(take(kind_block_, kind_at_, kinds));
  MixDraw draw;
  if (kind == MixKind::Optimize) {
    const std::size_t pick = take(opt_block_, opt_at_, four);
    MixRequest r;
    r.kind = kind;
    r.optimize.circuit = pair[pick / 2];
    r.optimize.corner_mode = static_cast<std::uint8_t>(pick % 2);
    r.optimize.max_moves = kMixOptimizeMoves;
    draw.request = &store(std::move(r));
    return draw;
  }
  const bool analyze = kind == MixKind::Analyze;
  const bool want_repeat =
      analyze ? take(analyze_coins_, analyze_coin_at_, coins) != 0
              : take(ssta_coins_, ssta_coin_at_, coins) != 0;
  std::deque<std::pair<std::size_t, const MixRequest*>>& issued =
      analyze ? issued_analyze_ : issued_ssta_;
  while (!issued.empty() && issued.front().first + kWindow < now)
    issued.pop_front();
  if (want_repeat) {
    std::vector<const MixRequest*> eligible;
    for (const auto& [at, req] : issued)
      if (at + kMinAge <= now) eligible.push_back(req);
    if (!eligible.empty()) {
      draw.request = eligible[rng_.below(eligible.size())];
      draw.repeat = true;
    }
  }
  if (draw.request == nullptr) {
    MixRequest r;
    r.kind = kind;
    if (analyze) {
      r.analyze = universe_[next_new_++ % universe_.size()];
    } else {
      r.ssta.circuit = pair[take(ssta_block_, ssta_at_, two)];
      // A fresh clock (0.01 ps grid) makes a new spec.
      r.ssta.clock_period_ps =
          std::round((1800.0 + 1600.0 * rng_.uniform()) * 100.0) / 100.0;
    }
    draw.request = &store(std::move(r));
  }
  issued.emplace_back(now, draw.request);
  return draw;
}

const MixRequest& MixSequence::store(MixRequest request) {
  std::string key = key_of(request);
  request.key = key;
  return specs_.try_emplace(std::move(key), std::move(request)).first->second;
}

std::unique_ptr<sva::TimingServer> start_server(const sva::SvaFlow& flow,
                                                sva::ThreadPool& pool,
                                                const std::string& socket_path,
                                                std::thread& serving) {
  sva::ServerConfig config;
  config.socket_path = socket_path;
  config.lanes = kDaemonLanes;
  config.result_cache_capacity = kDaemonResultCache;
  auto server = std::make_unique<sva::TimingServer>(flow, config);
  sva::TimingServer* raw = server.get();
  serving = std::thread([raw, &pool] { raw->serve(pool); });
  for (int i = 0; i < 20000; ++i) {
    try {
      sva::Fd probe = sva::unix_connect(socket_path);
      return server;
    } catch (const sva::SocketError&) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }
  stop_server(server, serving);
  throw std::runtime_error("daemon never listened on " + socket_path);
}

void stop_server(std::unique_ptr<sva::TimingServer>& server,
                 std::thread& serving) {
  if (server) server->request_stop();
  if (serving.joinable()) serving.join();
  server.reset();
}

DaemonWorkload::DaemonWorkload(const sva::SvaFlow& flow,
                               const sva::SizedLibrary& sized, Tally& tally,
                               Tracer& tracer, std::string socket_path)
    : flow_(flow), sized_(sized), tally_(tally), tracer_(tracer),
      socket_path_(std::move(socket_path)),
      server_pool_(kDaemonPoolThreads), direct_pool_(kDaemonPoolThreads) {
  server_ = start_server(flow_, server_pool_, socket_path_, serving_);
}

DaemonWorkload::~DaemonWorkload() { stop_server(server_, serving_); }

sva::JobResult DaemonWorkload::run_direct(const MixRequest& req) {
  switch (req.kind) {
    case MixKind::Analyze:
      return sva::run_analyze_job(flow_, direct_pool_, req.analyze, nullptr);
    case MixKind::Ssta:
      return sva::run_ssta_job(flow_, direct_pool_, req.ssta, nullptr);
    case MixKind::Optimize:
      break;
  }
  return sva::run_optimize_job(flow_, sized_, direct_pool_, req.optimize,
                               nullptr);
}

const std::string& DaemonWorkload::direct_digest(const MixRequest& req) {
  auto it = direct_.find(req.key);
  if (it == direct_.end()) {
    const auto t0 = Clock::now();
    sva::JobResult result = run_direct(req);
    direct_ms_[req.kind].push_back(ms_since(t0));
    it = direct_.emplace(req.key, fnv1a_hex(job_digest(result))).first;
  }
  return it->second;
}

MixReply DaemonWorkload::send(const MixRequest& req, std::uint64_t op) {
  MixReply reply;
  SpanScope span(tracer_, "server.request", op);
  const auto sent = Clock::now();
  try {
    const int connect_span = tracer_.begin("server.connect", op);
    sva::ServerClient client(socket_path_);
    tracer_.end(connect_span);
    reply.connect_ms = ms_since(sent);
    sva::Frame response;
    {
      SpanScope call(tracer_, "server.call", op);
      response = client.call(frame_of(req));
    }
    if (response.type == sva::MsgType::ResultResponse) {
      reply.delivered = true;
      reply.digest =
          fnv1a_hex(job_digest(sva::decode_result_response(response.body)));
    } else if (response.type == sva::MsgType::BusyResponse) {
      reply.busy = true;
    } else {
      reply.problem = std::string("answered ") + sva::msg_type_name(response.type);
    }
  } catch (const std::exception& e) {
    reply.problem = e.what();
  }
  reply.latency_ms = ms_since(sent);
  return reply;
}

void DaemonWorkload::warmup() {
  // Specs outside the mix's universe, so the timed phase sees no hit it
  // did not earn: a five-circuit analyze (lazy context fills of every mix
  // circuit), clock-less SSTA, and one optimize per circuit and corner
  // (the daemon builds its SizedLibrary on the first one).
  std::vector<MixRequest> warm;
  MixRequest a;
  a.kind = MixKind::Analyze;
  a.analyze.circuits = mix_analyze_circuits();
  warm.push_back(a);
  for (const char* c : {"C432", "C880"}) {
    MixRequest s;
    s.kind = MixKind::Ssta;
    s.ssta.circuit = c;
    warm.push_back(s);
    for (std::uint8_t mode : {0, 1}) {
      MixRequest o;
      o.kind = MixKind::Optimize;
      o.optimize.circuit = c;
      o.optimize.corner_mode = mode;
      warm.push_back(o);
    }
  }
  for (MixRequest& r : warm) {
    r.key = key_of(r);
    const MixReply reply = send(r, next_op_++);
    tally_.check(reply.delivered && reply.digest == direct_digest(r),
                 "daemon warm-up " + r.key + " differs from the direct run");
  }

  // Then C880 SSTA misses sent all at once, so both lanes run one at the
  // same time: the process's memory peak, which the timed phase would
  // otherwise reach only in runs that happen to overlap two of them.
  // Lanes are bound by spec hash; these clocks land on both lanes, where
  // whole-ps clocks all landed on one.
  std::vector<MixRequest> burst(kDaemonConnections);
  for (std::size_t k = 0; k < burst.size(); ++k) {
    burst[k].kind = MixKind::Ssta;
    burst[k].ssta.circuit = "C880";
    burst[k].ssta.clock_period_ps = 1000.0 + 0.01 * static_cast<double>(k + 1);
    burst[k].key = key_of(burst[k]);
  }
  std::vector<MixReply> replies(burst.size());
  std::vector<std::thread> senders;
  const std::uint64_t base_op = next_op_;
  next_op_ += burst.size();
  for (std::size_t k = 0; k < burst.size(); ++k)
    senders.emplace_back([&, k] { replies[k] = send(burst[k], base_op + k); });
  for (std::thread& t : senders) t.join();
  for (std::size_t k = 0; k < burst.size(); ++k)
    tally_.check(replies[k].delivered &&
                     replies[k].digest == direct_digest(burst[k]),
                 "daemon warm-up " + burst[k].key + " differs from the direct run");
}

std::vector<MixOutcome> DaemonWorkload::play(MixSequence& sequence,
                                             double seconds) {
  std::mutex mu;
  std::size_t drawn = 0;
  std::vector<std::vector<std::pair<std::size_t, MixOutcome>>> done(
      kDaemonConnections);
  const std::uint64_t base_op = next_op_;
  const auto start = Clock::now();
  auto client = [&](std::size_t c) {
    while (ms_since(start) < seconds * 1000.0) {
      MixDraw draw;
      std::size_t at = 0;
      {
        std::lock_guard<std::mutex> lock(mu);
        draw = sequence.next();
        at = drawn++;
      }
      MixOutcome out{draw, send(*draw.request, base_op + at)};
      done[c].emplace_back(at, std::move(out));
    }
  };
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kDaemonConnections; ++c)
    clients.emplace_back(client, c);
  for (std::thread& t : clients) t.join();
  next_op_ += drawn;

  std::vector<MixOutcome> outcomes(drawn);
  for (auto& per_client : done)
    for (auto& [at, out] : per_client) outcomes[at] = std::move(out);
  return outcomes;
}

LoopStats DaemonWorkload::verify(const std::vector<MixOutcome>& outcomes,
                                 double wall_s) {
  LoopStats stats;
  stats.wall_s = wall_s;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const MixReply& r = outcomes[i].reply;
    const MixRequest& req = *outcomes[i].draw.request;
    stats.latency_ms.push_back(r.latency_ms);
    std::string why;
    if (r.busy)
      why = "refused (Busy)";
    else if (!r.delivered)
      why = r.problem;
    else if (r.digest != direct_digest(req))
      why = "reply differs from the direct run";
    tally_.check(why.empty(), "daemon_mix request " + std::to_string(i) +
                                  " (" + req.key + "): " + why);
    if (why.empty() && r.latency_ms <= kDaemonLimitMs) ++stats.good;
  }
  return stats;
}

namespace {

/// Latency of each request class, for the run's `#` lines.
void print_mix_classes(const std::vector<MixOutcome>& outcomes) {
  std::map<std::string, std::vector<double>> by_class;
  for (const MixOutcome& o : outcomes)
    by_class[std::string(kind_name(o.draw.request->kind)) +
             (o.draw.repeat ? "-repeat" : "-new")]
        .push_back(o.reply.latency_ms);
  std::fprintf(stdout, "# latency by class (n, p50 ms, p90 ms):");
  for (const auto& [name, v] : by_class)
    std::fprintf(stdout, " %s %zu %.3f %.3f", name.c_str(), v.size(),
                 median(v), quantile_pcm(v, 90000));
  std::fprintf(stdout, "\n");
}

}  // namespace

// --- the end-to-end run --------------------------------------------------

namespace {

/// The aggregate "cpu" line of /proc/stat (empty where there is none).
std::vector<double> host_cpu_ticks() {
  std::vector<double> ticks;
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  double v = 0.0;
  while (label == "cpu" && in.peek() != '\n' && in >> v) ticks.push_back(v);
  return ticks;
}

void add_latency_metrics(MetricSet& metrics, const LoopStats& stats) {
  const TailPick tail = pick_tail(stats.latency_ms);
  std::fprintf(stdout,
               "# timed ops %zu, wall %.3f s, tail = p%g (%zu samples beyond, "
               "%zu total)\n",
               stats.latency_ms.size(), stats.wall_s, tail.percentile,
               tail.beyond, tail.samples);
  std::fprintf(stdout, "# latency ms:");
  for (std::uint32_t p : {10000u, 25000u, 50000u, 75000u, 90000u, 99000u})
    std::fprintf(stdout, " p%u %.3f", p / 1000, quantile_pcm(stats.latency_ms, p));
  std::fprintf(stdout, "\n");
  metrics.add("throughput_per_s", stats.throughput(), "1/s");
  metrics.add("p50_ms", median(stats.latency_ms), "ms");
  metrics.add("tail_ms", tail.value, "ms");
}

}  // namespace

void run_timed(const RunOptions& opt, const References& refs, Tally& tally,
               MetricSet& metrics) {
  Tracer tracer(false);
  Rng rng(opt.seed);
  const bool daemon = opt.workload == "daemon_mix";
  const bool sized = opt.workload != "table2_sweep";

  // Cold set-up, repeated before and after the timed phase (the host's
  // speed drifts over seconds): each rep gets a fresh, empty cache dir.
  std::vector<double> setup_ms;
  auto set_up = [&](int rep) {
    Stack stack;
    const auto t0 = Clock::now();
    stack.flow = make_cold_flow("cache-" + std::to_string(rep));
    if (sized) stack.sized = make_sized(*stack.flow);
    if (daemon) {
      sva::ThreadPool pool(kDaemonPoolThreads);
      std::thread serving;
      auto server = start_server(*stack.flow, pool, "setup.sock", serving);
      setup_ms.push_back(ms_since(t0));
      stop_server(server, serving);
    } else {
      setup_ms.push_back(ms_since(t0));
    }
    return stack;
  };
  Stack stack;
  for (int rep = 0; rep < kSetupRepsBefore; ++rep) {
    stack = Stack{};  // never two flows alive at once
    stack = set_up(rep);
  }

  const std::vector<double> ticks0 = host_cpu_ticks();
  LoopStats stats;
  if (opt.workload == "table2_sweep") {
    SweepWorkload w(*stack.flow, refs, tally, tracer);
    w.oracle();
    stats = w.loop(rng, opt.seconds, /*warmup=*/3);
  } else if (opt.workload == "eco_ssta") {
    EcoWorkload w(*stack.flow, *stack.sized, refs, tally, tracer);
    w.oracle();
    stats = w.loop(rng, opt.seconds, /*warmup_rounds=*/1);
  } else {
    std::fprintf(stdout, "# peak rss after set-up %.2f MB\n", peak_rss_mb());
    DaemonWorkload w(*stack.flow, *stack.sized, tally, tracer, "daemon.sock");
    w.warmup();
    std::fprintf(stdout, "# peak rss after warm-up %.2f MB\n", peak_rss_mb());
    MixSequence sequence(opt.seed);
    const auto t0 = Clock::now();
    const std::vector<MixOutcome> outcomes = w.play(sequence, opt.seconds);
    const double wall_s = ms_since(t0) / 1000.0;
    std::fprintf(stdout, "# peak rss after the timed phase %.2f MB\n",
                 peak_rss_mb());
    print_mix_classes(outcomes);
    stats = w.verify(outcomes, wall_s);
  }
  const std::vector<double> ticks1 = host_cpu_ticks();
  if (ticks0.size() > 7 && ticks1.size() > 7) {
    // /proc/stat "cpu" columns: user nice system idle iowait irq softirq steal
    double total = 0.0;
    for (std::size_t i = 0; i < ticks1.size(); ++i) total += ticks1[i] - ticks0[i];
    std::fprintf(stdout, "# host cpu over the run: idle %.1f%%, steal %.1f%%\n",
                 100.0 * (ticks1[3] - ticks0[3]) / total,
                 100.0 * (ticks1[7] - ticks0[7]) / total);
  }
  const double rss_mb = peak_rss_mb();
  stack = Stack{};
  for (int rep = 0; rep < kSetupRepsAfter; ++rep)
    set_up(kSetupRepsBefore + rep);
  metrics.add("setup_s", median(setup_ms) / 1000.0, "s");
  add_latency_metrics(metrics, stats);
  metrics.add("peak_rss_mb", rss_mb, "MB");
}

void emit_golden(const std::string& ref_dir) {
  const std::string dir = ref_dir + "/golden";
  std::filesystem::create_directories(dir);
  const auto flow = make_cold_flow("cache-golden");
  const auto sized = make_sized(*flow);
  sva::ThreadPool pool(kEcoThreads);
  sva::AnalyzeJobSpec all;
  all.circuits = table2_circuits();
  write_text(dir + "/analyze.txt",
             job_digest(sva::run_analyze_job(*flow, pool, all, nullptr)));
  for (const std::string& c : eco_circuits()) {
    sva::SstaJobSpec ssta;
    ssta.circuit = c;
    write_text(dir + "/ssta_" + c + ".txt",
               job_digest(sva::run_ssta_job(*flow, pool, ssta, nullptr)));
    sva::OptimizeJobSpec spec;
    spec.circuit = c;
    const sva::EcoResult sva_row = run_eco(
        *flow, *sized, c, sva::EcoCornerMode::SvaWorst, 0.0, pool);
    write_text(dir + "/opt_sva_" + c + ".txt",
               job_digest(sva::run_optimize_job(*flow, *sized, pool, spec,
                                                nullptr)));
    spec.corner_mode = 1;
    spec.clock_period_ps = sva_row.clock_period_ps;
    write_text(dir + "/opt_trad_" + c + ".txt",
               job_digest(sva::run_optimize_job(*flow, *sized, pool, spec,
                                                nullptr)));
  }
}

}  // namespace perfbench
