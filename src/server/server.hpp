#pragma once
// The `sva serve` daemon: a long-lived timing server over a Unix-domain
// socket and/or a TCP listener (both speak the same frame protocol).
//
// Construction-time cost is paid once: the caller builds the SvaFlow
// (library OPC, pitch table, context cache -- warm-started from the
// persistent cache where available) and hands it in; the SizedLibrary
// the optimize path needs is built lazily on the first optimize request
// and then stays hot.  serve() then runs four kinds of thread:
//
//   accept loop     (caller's thread)  poll/accept over both listeners,
//                   failpoints "server.accept" / "server.conn.accept",
//                   spawns one handler per connection; connections over
//                   the --max-conns cap are shed with a Busy response
//                   carrying the retry_after_ms hint instead of being
//                   queued (server.conn.shed_busy);
//   handlers        read frames ("server.read" failpoint) through the
//                   connection supervisor (server/conn.hpp): per-frame
//                   read/write budgets plus an idle budget evict
//                   slow-loris peers (server.conn.evicted_slow).  They
//                   answer metrics/ping/health/shutdown inline, submit
//                   analyze/optimize/ssta jobs to the LanePool -- a full
//                   backlog answers Busy immediately with a
//                   retry_after_ms hint (admission control) -- then wait
//                   on the job while watching the socket: a client
//                   disconnect cancels that client's job only.  A
//                   BatchRequest admits its N slots in submission order
//                   (distinct specs spread over the lanes concurrently)
//                   and answers one BatchResponse whose slots are
//                   byte-identical to N single-spec connections; a
//                   malformed or crashing slot poisons only itself;
//   lanes           N executor lanes (--lanes), each owning a queue and
//                   running its jobs on the shared ThreadPool.  A job is
//                   bound to lane (spec_hash % N) so identical specs
//                   serialize and results stay bit-identical to the
//                   single-executor daemon; a crashing or cancelled job
//                   poisons only its lane, which is recycled in place;
//   watchdog        (inside the LanePool) heartbeat scanner that cancels
//                   stuck jobs and replaces wedged lane threads.
//
// Each job carries its own CancelToken; a per-request deadline_ms is
// armed at admission (queue wait counts).  Clean analyze/ssta results
// are remembered in a bounded LRU ResultCache keyed by the job-spec
// content hash, which makes client retries idempotent: a replayed spec
// is answered with the exact bytes of the first run without
// re-execution.  Graceful shutdown -- SIGTERM/SIGINT via the `stop`
// token, or a client Shutdown request -- stops admissions, drains every
// admitted job to its waiting client, joins all threads, unlinks the
// socket file, and returns 0.  A malformed or faulted client frame drops
// that connection and nothing else: the daemon survives every
// client-side byte sequence.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "server/conn.hpp"
#include "server/job_queue.hpp"
#include "server/lane_pool.hpp"
#include "server/protocol.hpp"
#include "server/result_cache.hpp"
#include "server/socket.hpp"
#include "util/cancel.hpp"

namespace sva {

class SvaFlow;
class SizedLibrary;
class ThreadPool;

struct ServerConfig {
  /// Unix-domain socket path; empty disables that listener.
  std::string socket_path;
  /// TCP listen address as HOST:PORT (port 0 = kernel-assigned, see
  /// tcp_port()); empty disables the TCP listener.  At least one of
  /// socket_path / listen_address must be set.
  std::string listen_address;
  /// Admission-control bound: jobs queued beyond this are rejected with a
  /// Busy response.
  std::size_t queue_depth = 8;
  /// Hard cap on concurrently served connections; an accept beyond it is
  /// answered Busy (retry_after_ms hint) and closed immediately.
  std::size_t max_conns = 64;
  /// Per-connection IO budgets (slow-client defense); see ConnLimits.
  ConnLimits conn_limits;
  /// Executor lanes; 0 sizes from the hardware (capped, >= 1).
  std::size_t lanes = 0;
  /// Result-cache entries for clean analyze/ssta results; 0 disables
  /// (the `sva serve` CLI defaults this on).
  std::size_t result_cache_capacity = 0;
  /// Print each bound endpoint on stdout once listening ("sva serve:
  /// listening on tcp:HOST:PORT").  The CLI daemon turns this on so
  /// scripts can discover a kernel-assigned TCP port; in-process
  /// embedders (tests, benches) read tcp_port() instead.
  bool announce = false;
  /// Watchdog thresholds; see LanePool::Config.
  std::uint64_t watchdog_stall_ms = 10'000;
  std::uint64_t watchdog_grace_ms = 2'000;
};

/// Busy-response backoff hint: how long a rejected client should wait
/// before retrying, from the queued backlog and the recent mean job
/// time.  Monotone in queue_depth and clamped to a sane range.
std::uint64_t estimate_retry_after_ms(std::size_t queue_depth,
                                      double mean_job_ms);

class TimingServer {
 public:
  /// `flow` must outlive the server and stay constructed for the whole
  /// serve() call; it is shared by every job.
  TimingServer(const SvaFlow& flow, ServerConfig config);
  ~TimingServer();

  TimingServer(const TimingServer&) = delete;
  TimingServer& operator=(const TimingServer&) = delete;

  /// Bind the socket and serve until shutdown.  Jobs execute on `pool`.
  /// A non-null `stop` token (the CLI passes the global signal token) is
  /// polled by the accept loop; tripping it begins the graceful drain.
  /// Returns the process exit code (0 on a clean drain).
  int serve(ThreadPool& pool, const CancelToken* stop = nullptr);

  /// Begin the graceful drain from another thread (tests; the shutdown
  /// request uses it internally).  Idempotent.
  void request_stop();

  const ServerConfig& config() const { return config_; }
  std::size_t lane_count() const { return lanes_.lane_count(); }
  /// Port the TCP listener actually bound (0 until serve() binds it);
  /// meaningful when listen_address asked for port 0.
  std::uint16_t tcp_port() const { return tcp_port_.load(); }

 private:
  /// A job past admission: its handle plus the future the lane fulfils.
  struct PendingJob {
    std::shared_ptr<ServerJob> job;
    std::future<JobResult> done;
    std::shared_ptr<CancelToken> cancel;
  };

  void handle_connection(Conn conn);
  void handle_request(Conn& conn, const Frame& request, bool& keep_open);
  /// Result-cache lookup + admission control.  Either fills `immediate`
  /// (cached replay or Busy) or returns the pending job handle.
  std::optional<PendingJob> admit_job(
      std::uint64_t deadline_ms, std::uint64_t spec_hash, bool cacheable,
      std::function<JobResult(const CancelToken*)> work,
      std::optional<Frame>* immediate);
  /// Account a finished job and render its response frame (inserting a
  /// clean cacheable result into the result cache).
  Frame finish_result(const JobResult& result, std::uint64_t spec_hash,
                      bool cacheable);
  /// Admit one job (or answer Busy / the result cache) and stream the
  /// response.  `keep_open` is cleared on a lane crash, where the
  /// connection is dropped without a response so the client's
  /// transient-retry path takes over.
  void submit_and_wait(Conn& conn, std::uint64_t deadline_ms,
                       std::uint64_t spec_hash, bool cacheable,
                       std::function<JobResult(const CancelToken*)> work,
                       bool& keep_open);
  /// Serve a BatchRequest: admit every slot in submission order, await
  /// them in the same order, and answer one BatchResponse.  Per-slot
  /// isolation: a malformed spec, a Busy rejection, a job error, or a
  /// crashed lane resolves to that slot's response only.
  void handle_batch(Conn& conn, const BatchRequest& request);
  HealthResponse health_snapshot() const;
  /// The lazily built sized library (first optimize request pays for
  /// it); throws out of the executor on construction failure.
  const SizedLibrary& ensure_sized();

  const SvaFlow& flow_;
  ServerConfig config_;
  ThreadPool* pool_ = nullptr;
  LanePool lanes_;
  ResultCache result_cache_;
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> next_job_id_{1};
  std::atomic<std::uint64_t> jobs_served_{0};
  std::atomic<std::uint16_t> tcp_port_{0};
  std::atomic<std::size_t> active_conns_{0};
  std::chrono::steady_clock::time_point started_at_{};

  std::unique_ptr<SizedLibrary> sized_;
  std::once_flag sized_once_;

  std::mutex handlers_mu_;
  struct Handler {
    std::thread thread;
    std::shared_ptr<std::atomic<bool>> finished;
  };
  std::vector<Handler> handlers_;
  void reap_handlers(bool join_all);
};

}  // namespace sva
