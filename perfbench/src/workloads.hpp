#pragma once
// The three workloads and the cold set-up they share.  Each drives the
// system only through its public entry points: the SvaFlow constructor,
// run_analyze_job / run_ssta_job / run_optimize_job, and an in-process
// TimingServer reached through ServerClient.

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/flow.hpp"
#include "engine/thread_pool.hpp"
#include "harness.hpp"
#include "opt/sizing.hpp"
#include "oracle.hpp"
#include "server/jobs.hpp"
#include "server/server.hpp"
#include "ssta/propagate.hpp"

namespace perfbench {

// Every pool, lane and connection count is explicit, never derived from
// hardware_concurrency, so two hosts run the same configuration.
inline constexpr std::size_t kSweepThreads = 4;
inline constexpr std::size_t kEcoThreads = 4;
inline constexpr std::size_t kDaemonPoolThreads = 2;
inline constexpr std::size_t kDaemonLanes = 2;
inline constexpr std::size_t kDaemonResultCache = 128;  ///< `sva serve` default
inline constexpr std::size_t kDaemonConnections = 4;
/// Share of the analyze and ssta requests that repeat an earlier spec
/// (result-cache hits).  A quarter, so p50_ms falls inside the misses;
/// README.md says why not half.
inline constexpr double kDaemonRepeatShare = 0.25;
/// A reply later than this misses the latency limit (about three times
/// the closed loop's p99).
inline constexpr double kDaemonLimitMs = 100.0;
/// Cold set-ups per run, before and after the timed phase; setup_s is
/// their median.
inline constexpr int kSetupRepsBefore = 7;
inline constexpr int kSetupRepsAfter = 6;

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string ref_dir;
  std::string git_sha = "unknown";
  std::string trace_out;  ///< Chrome trace path of a traced run
  std::string header;     ///< JSON object body describing the run
};

/// The ten built-in circuits (the Table 2 set), smallest first.
const std::vector<std::string>& table2_circuits();
/// The statistical-closure ops of eco_ssta.  C1908 is checked by the
/// oracle but not timed: its traditional-corner ECO (57 moves, 18707
/// candidates) would be three quarters of every round.
const std::vector<std::string>& eco_circuits();
/// The circuits whose SSTA and closure rows the oracle checks.
const std::vector<std::string>& eco_oracle_circuits();

struct LoopStats {
  std::vector<double> latency_ms;  ///< one per timed op
  std::uint64_t good = 0;          ///< ops that count toward throughput
  double wall_s = 0.0;
  double throughput() const { return wall_s > 0.0 ? good / wall_s : 0.0; }
};

/// What a workload's set-up builds.
struct Stack {
  std::unique_ptr<sva::SvaFlow> flow;
  std::unique_ptr<sva::SizedLibrary> sized;
};

/// A flow built with a fresh, empty persistent-cache directory: the cost
/// a first CLI run or a daemon start pays.
std::unique_ptr<sva::SvaFlow> make_cold_flow(const std::string& cache_dir);
std::unique_ptr<sva::SizedLibrary> make_sized(const sva::SvaFlow& flow);
/// The ECO and SSTA configurations run_optimize_job / run_ssta_job build.
sva::EcoConfig eco_config(const sva::SvaFlow& flow, sva::EcoCornerMode mode,
                          double clock_ps);
sva::SstaVariationModel ssta_model(const sva::SvaFlow& flow);

// --- table2_sweep --------------------------------------------------------

class SweepWorkload {
 public:
  SweepWorkload(const sva::SvaFlow& flow, const References& refs,
                Tally& tally, Tracer& tracer);
  /// Checks the Table 2 numbers, the C432 anchor and the reduction band
  /// through SvaFlow::analyze_benchmark; one tally op per check.
  void oracle();
  /// One sweep: run_analyze_job over `order`, verified against the golden.
  bool op(std::uint64_t id, const std::vector<std::string>& order);
  /// Closed loop for `seconds`; each sweep takes a seeded circuit order.
  LoopStats loop(Rng& rng, double seconds, int warmup);
  sva::ThreadPool& pool() { return pool_; }

 private:
  const sva::SvaFlow& flow_;
  const References& refs_;
  Tally& tally_;
  Tracer& tracer_;
  sva::ThreadPool pool_;
  std::uint64_t next_op_ = 0;
};

// --- eco_ssta ------------------------------------------------------------

class EcoWorkload {
 public:
  EcoWorkload(const sva::SvaFlow& flow, const sva::SizedLibrary& sized,
              const References& refs, Tally& tally, Tracer& tracer);
  /// Checks SSTA mean/sigma and both closure rows per circuit, and fixes
  /// the shared clock of the traditional-corner run (the SVA auto clock).
  void oracle();
  /// One op: run_ssta_job, then run_optimize_job at the SVA corner (auto
  /// clock) and at the traditional corner (same clock).
  bool op(std::uint64_t id, const std::string& circuit);
  /// Closed loop in rounds: each round visits every circuit once in a
  /// seeded order, and the loop stops only at a round boundary.
  LoopStats loop(Rng& rng, double seconds, int warmup_rounds);

 private:
  double shared_clock_ps(const std::string& circuit) const;

  const sva::SvaFlow& flow_;
  const sva::SizedLibrary& sized_;
  const References& refs_;
  Tally& tally_;
  Tracer& tracer_;
  sva::ThreadPool pool_;
  std::map<std::string, double> clock_ps_;
  std::uint64_t next_op_ = 0;
};

// --- daemon_mix ----------------------------------------------------------

enum class MixKind : std::uint8_t { Analyze, Ssta, Optimize };

struct MixRequest {
  MixKind kind = MixKind::Analyze;
  sva::AnalyzeJobSpec analyze;
  sva::SstaJobSpec ssta;
  sva::OptimizeJobSpec optimize;
  std::string key;  ///< identity of the spec
};

/// One request of the sequence: a spec and whether it repeats an earlier
/// one (and so should be a result-cache hit).
struct MixDraw {
  const MixRequest* request = nullptr;
  bool repeat = false;
};

/// The seeded request sequence of daemon_mix, drawn on demand so the
/// closed loop runs for as long as the clock allows.  Kinds come in
/// shuffled blocks of 20 (12 analyze, 5 ssta, 3 optimize) and repeat coins
/// in shuffled blocks of 4, so every seed plays the same mix: ~60% analyze
/// (1-3 of C432..C1908), 25% ssta and 15% optimize (C432/C880), with
/// kDaemonRepeatShare of the analyze and ssta requests repeating a recent
/// spec.  Each distinct spec is stored once; the pointers stay valid for
/// the sequence's life.
class MixSequence {
 public:
  explicit MixSequence(std::uint64_t seed);
  MixDraw next();

 private:
  std::size_t take(std::vector<std::size_t>& block, std::size_t& at,
                   const std::vector<std::size_t>& fresh);
  const MixRequest& store(MixRequest request);

  Rng rng_;
  std::vector<sva::AnalyzeJobSpec> universe_;
  std::size_t next_new_ = 0;
  std::size_t drawn_ = 0;
  std::vector<std::size_t> kind_block_, analyze_coins_, ssta_coins_,
      ssta_block_, opt_block_;
  std::size_t kind_at_ = 0, analyze_coin_at_ = 0, ssta_coin_at_ = 0,
              ssta_at_ = 0, opt_at_ = 0;
  std::deque<std::pair<std::size_t, const MixRequest*>> issued_analyze_,
      issued_ssta_;
  std::map<std::string, MixRequest> specs_;
};

struct MixReply {
  bool delivered = false;  ///< a ResultResponse arrived
  bool busy = false;
  std::string problem;     ///< transport or protocol failure
  double latency_ms = 0.0; ///< from the send
  double connect_ms = 0.0;
  std::string digest;      ///< fnv1a_hex of the reply's job_digest
};

struct MixOutcome {
  MixDraw draw;
  MixReply reply;
};

/// An in-process daemon on a Unix socket plus the closed-loop clients.
class DaemonWorkload {
 public:
  DaemonWorkload(const sva::SvaFlow& flow, const sva::SizedLibrary& sized,
                 Tally& tally, Tracer& tracer, std::string socket_path);
  ~DaemonWorkload();
  DaemonWorkload(const DaemonWorkload&) = delete;
  DaemonWorkload& operator=(const DaemonWorkload&) = delete;

  /// Untimed: the lazy fills and the daemon's first-optimize SizedLibrary.
  void warmup();
  /// One request over a fresh ServerClient.
  MixReply send(const MixRequest& req, std::uint64_t op);
  /// The closed loop: kDaemonConnections clients each send the next
  /// request of `sequence` as soon as their previous reply arrives, until
  /// `seconds` have passed.  Outcomes come in sequence order.
  std::vector<MixOutcome> play(MixSequence& sequence, double seconds);
  /// Checks every reply against the direct job result of its spec (one
  /// tally op per request) and returns the goodput stats.
  LoopStats verify(const std::vector<MixOutcome>& outcomes, double wall_s);
  /// fnv1a_hex of the direct run_*_job digest of a spec, memoized by key.
  const std::string& direct_digest(const MixRequest& req);
  /// Direct run_*_job result of a spec (not memoized).
  sva::JobResult run_direct(const MixRequest& req);
  /// Wall times (ms) of the memoized direct runs of one kind.
  const std::vector<double>& direct_ms(MixKind kind) { return direct_ms_[kind]; }

 private:
  const sva::SvaFlow& flow_;
  const sva::SizedLibrary& sized_;
  Tally& tally_;
  Tracer& tracer_;
  std::string socket_path_;
  sva::ThreadPool server_pool_;
  sva::ThreadPool direct_pool_;
  std::unique_ptr<sva::TimingServer> server_;
  std::thread serving_;
  std::map<std::string, std::string> direct_;
  std::map<MixKind, std::vector<double>> direct_ms_;
  std::uint64_t next_op_ = 0;
};

/// Starts a TimingServer on `socket_path` and returns once it accepts.
std::unique_ptr<sva::TimingServer> start_server(const sva::SvaFlow& flow,
                                                sva::ThreadPool& pool,
                                                const std::string& socket_path,
                                                std::thread& serving);
void stop_server(std::unique_ptr<sva::TimingServer>& server,
                 std::thread& serving);

/// The end-to-end run (--trace 0).
void run_timed(const RunOptions& opt, const References& refs, Tally& tally,
               MetricSet& metrics);
/// The traced per-layer run (--trace 1), in layers.cpp.
void run_traced(const RunOptions& opt, const References& refs, Tally& tally,
                MetricSet& metrics);
/// Rewrites golden/*.txt under `ref_dir` from the current program.
void emit_golden(const std::string& ref_dir);

double peak_rss_mb();

}  // namespace perfbench
