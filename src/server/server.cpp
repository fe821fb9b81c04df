#include "server/server.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <future>
#include <thread>

#include "core/flow.hpp"
#include "engine/options.hpp"
#include "engine/thread_pool.hpp"
#include "opt/sizing.hpp"
#include "util/failpoint.hpp"
#include "util/logging.hpp"
#include "util/metrics.hpp"

namespace sva {

namespace {

/// Cadence of every bounded wait in the daemon: accept polls, idle
/// connection reads, and in-flight job watches.  Short enough that stop
/// requests and client disconnects are noticed promptly.
constexpr int kPollMs = 50;

/// Budget for the best-effort Busy frame written to a shed connection:
/// a peer that will not even drain one small frame is not worth more.
constexpr std::uint64_t kShedWriteBudgetMs = 1'000;

Counter& counter(const char* name) {
  return MetricsRegistry::global().counter(name);
}

Frame result_frame(const JobResult& result) {
  if (!result.error.empty())
    return {MsgType::ErrorResponse,
            encode_error_response({ProtoStatus::ServerError, result.error})};
  if (result.cancelled)
    return {MsgType::CancelledResponse,
            encode_cancelled_response({result.cancel_reason, result.output})};
  return {MsgType::ResultResponse, encode_result_response(result)};
}

std::size_t resolve_lanes(std::size_t requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  // Each lane runs its job on the shared ThreadPool, so lanes beyond a
  // handful only add queueing slots, not compute.
  return std::min<std::size_t>(hw == 0 ? 1 : hw, 8);
}

double mean_job_exec_ms() {
  const TimerStat& exec = MetricsRegistry::global().timer("server.job_exec");
  const std::uint64_t n = exec.count();
  return n == 0 ? 0.0 : exec.seconds() * 1e3 / static_cast<double>(n);
}

}  // namespace

std::uint64_t estimate_retry_after_ms(std::size_t queue_depth,
                                      double mean_job_ms) {
  // Even with no job history the hint suggests a real pause, and the cap
  // keeps a pathological mean from telling clients to sleep for minutes.
  constexpr double kFloorMs = 25.0;
  constexpr double kCapMs = 60'000.0;
  const double per_job = std::max(mean_job_ms, kFloorMs);
  const double estimate = static_cast<double>(queue_depth + 1) * per_job;
  return static_cast<std::uint64_t>(std::min(estimate, kCapMs));
}

TimingServer::TimingServer(const SvaFlow& flow, ServerConfig config)
    : flow_(flow),
      config_(std::move(config)),
      lanes_(LanePool::Config{resolve_lanes(config_.lanes),
                              config_.queue_depth, config_.watchdog_stall_ms,
                              config_.watchdog_grace_ms}),
      result_cache_(config_.result_cache_capacity) {}

TimingServer::~TimingServer() { reap_handlers(true); }

void TimingServer::request_stop() { stop_.store(true); }

const SizedLibrary& TimingServer::ensure_sized() {
  std::call_once(sized_once_, [&] {
    sized_ = std::make_unique<SizedLibrary>(
        flow_.library(), flow_.config().electrical, flow_.library_opc_results(),
        flow_.boundary_model(), flow_.config().bins);
  });
  return *sized_;
}

void TimingServer::reap_handlers(bool join_all) {
  std::vector<std::thread> joinable;
  {
    std::lock_guard<std::mutex> lock(handlers_mu_);
    for (auto it = handlers_.begin(); it != handlers_.end();) {
      if (join_all || it->finished->load()) {
        joinable.push_back(std::move(it->thread));
        it = handlers_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (std::thread& t : joinable)
    if (t.joinable()) t.join();
}

int TimingServer::serve(ThreadPool& pool, const CancelToken* stop) {
  pool_ = &pool;
  started_at_ = std::chrono::steady_clock::now();

  Fd unix_listener;
  Fd tcp_listener;
  if (!config_.socket_path.empty()) {
    unix_listener = unix_listen(config_.socket_path);
    log_info("sva serve: listening on unix:", config_.socket_path,
             " (queue depth ", config_.queue_depth, ", lanes ",
             lanes_.lane_count(), ", result cache ", result_cache_.capacity(),
             ", max conns ", config_.max_conns, ")");
    if (config_.announce) {
      std::printf("sva serve: listening on unix:%s\n",
                  config_.socket_path.c_str());
      std::fflush(stdout);
    }
  }
  if (!config_.listen_address.empty()) {
    const Endpoint ep = parse_endpoint("tcp:" + config_.listen_address);
    std::uint16_t bound = 0;
    tcp_listener = tcp_listen(ep.host, ep.port, /*backlog=*/16, &bound);
    tcp_port_.store(bound);
    log_info("sva serve: listening on tcp:", ep.host, ":", bound,
             " (queue depth ", config_.queue_depth, ", lanes ",
             lanes_.lane_count(), ", result cache ", result_cache_.capacity(),
             ", max conns ", config_.max_conns, ")");
    if (config_.announce) {
      std::printf("sva serve: listening on tcp:%s:%u\n", ep.host.c_str(),
                  static_cast<unsigned>(bound));
      std::fflush(stdout);
    }
  }
  if (!unix_listener.valid() && !tcp_listener.valid()) {
    log_error("sva serve: no listener configured (--socket and/or --listen)");
    return 1;
  }

  int listen_fds[2];
  bool listen_is_tcp[2];
  std::size_t n_listeners = 0;
  if (unix_listener.valid()) {
    listen_fds[n_listeners] = unix_listener.get();
    listen_is_tcp[n_listeners++] = false;
  }
  if (tcp_listener.valid()) {
    listen_fds[n_listeners] = tcp_listener.get();
    listen_is_tcp[n_listeners++] = true;
  }

  lanes_.start();

  while (!stop_.load()) {
    if (stop != nullptr && stop->poll()) break;
    int which = -1;
    try {
      which = poll_any_readable(listen_fds, n_listeners, kPollMs);
    } catch (const std::exception& e) {
      log_warn("server: listener poll failed (", e.what(), ")");
      break;
    }
    reap_handlers(false);
    if (which < 0) continue;
    const bool is_tcp = listen_is_tcp[which];
    try {
      // Injected accept faults must cost at most the one connection that
      // hit them; the loop keeps serving.
      SVA_FAILPOINT("server.accept");
      const int conn = ::accept(listen_fds[which], nullptr, nullptr);
      if (conn < 0) continue;
      counter("server.connections").add();
      Fd conn_fd(conn);
      // Accepted sockets inherit neither FD_CLOEXEC nor TCP_NODELAY.
      adopt_stream_socket(conn, is_tcp);
      SVA_FAILPOINT("server.conn.accept");
      if (active_conns_.load() >= config_.max_conns) {
        // Over the connection cap: shed with the same Busy + hint the
        // queue-depth admission path answers, so the client's existing
        // retry machinery handles both overload modes identically.
        counter("server.conn.shed_busy").add();
        const std::size_t depth = lanes_.queued_depth();
        const IoDeadline budget = IoDeadline::after_ms(kShedWriteBudgetMs);
        try {
          write_frame(
              conn_fd.get(),
              {MsgType::BusyResponse,
               encode_busy_response(
                   {depth, lanes_.queue_capacity(),
                    estimate_retry_after_ms(depth, mean_job_exec_ms())})},
              &budget);
        } catch (const std::exception&) {
        }
        continue;
      }
      Conn supervised(std::move(conn_fd), config_.conn_limits);
      active_conns_.fetch_add(1);
      auto finished = std::make_shared<std::atomic<bool>>(false);
      std::thread t(
          [this, c = std::move(supervised), finished]() mutable {
            handle_connection(std::move(c));
            active_conns_.fetch_sub(1);
            finished->store(true);
          });
      std::lock_guard<std::mutex> lock(handlers_mu_);
      handlers_.push_back({std::move(t), std::move(finished)});
    } catch (const std::exception& e) {
      counter("server.accept_faults").add();
      log_warn("server: accept failed (", e.what(), "); connection dropped");
    }
  }

  // Graceful drain: no new admissions, every admitted job still reaches
  // its client, then the socket file disappears.
  stop_.store(true);
  unix_listener.close_now();
  tcp_listener.close_now();
  lanes_.close_and_drain();
  reap_handlers(true);
  if (!config_.socket_path.empty()) ::unlink(config_.socket_path.c_str());
  log_info("sva serve: drained and stopped");
  return 0;
}

HealthResponse TimingServer::health_snapshot() const {
  HealthResponse h;
  h.uptime_ms = static_cast<std::uint64_t>(
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - started_at_)
          .count());
  h.queue_depth = lanes_.queued_depth();
  h.queue_capacity = lanes_.queue_capacity();
  h.jobs_served = jobs_served_.load();
  h.lanes_poisoned = counter("server.lane.poisoned").value();
  for (const LaneState state : lanes_.lane_states())
    h.lane_states.push_back(static_cast<char>(state));
  return h;
}

std::optional<TimingServer::PendingJob> TimingServer::admit_job(
    std::uint64_t deadline_ms, std::uint64_t spec_hash, bool cacheable,
    std::function<JobResult(const CancelToken*)> work,
    std::optional<Frame>* immediate) {
  if (cacheable) {
    if (std::optional<JobResult> cached = result_cache_.lookup(spec_hash)) {
      // An idempotent replay: the exact bytes the first execution
      // produced, so a retried request cannot diverge from its original.
      jobs_served_.fetch_add(1);
      *immediate = result_frame(*cached);
      return std::nullopt;
    }
  }

  auto job = std::make_shared<ServerJob>();
  job->id = next_job_id_.fetch_add(1);
  job->spec_hash = spec_hash;
  job->cacheable = cacheable;
  job->cancel = std::make_shared<CancelToken>();
  if (deadline_ms > 0)
    job->cancel->set_deadline(
        Deadline::after_seconds(static_cast<double>(deadline_ms) / 1000.0));
  // Armed before the job is shared, like the deadline: every poll() inside
  // the work beats this counter for the watchdog.
  job->cancel->set_heartbeat(&job->heartbeat);
  job->work = [w = std::move(work), token = job->cancel] {
    return w(token.get());
  };
  job->enqueued_at = std::chrono::steady_clock::now();
  PendingJob pending;
  pending.done = job->done.get_future();
  pending.cancel = job->cancel;
  pending.job = job;

  if (!lanes_.submit(job)) {
    counter("server.jobs_rejected").add();
    const std::size_t depth = lanes_.queued_depth();
    *immediate = Frame{
        MsgType::BusyResponse,
        encode_busy_response(
            {depth, lanes_.queue_capacity(),
             estimate_retry_after_ms(depth, mean_job_exec_ms())})};
    return std::nullopt;
  }
  counter("server.jobs_accepted").add();
  return pending;
}

Frame TimingServer::finish_result(const JobResult& result,
                                  std::uint64_t spec_hash, bool cacheable) {
  jobs_served_.fetch_add(1);
  if (cacheable && result.exit_code == 0 && result.error.empty() &&
      !result.cancelled)
    result_cache_.insert(spec_hash, result);
  return result_frame(result);
}

void TimingServer::submit_and_wait(
    Conn& conn, std::uint64_t deadline_ms, std::uint64_t spec_hash,
    bool cacheable, std::function<JobResult(const CancelToken*)> work,
    bool& keep_open) {
  std::optional<Frame> immediate;
  std::optional<PendingJob> pending =
      admit_job(deadline_ms, spec_hash, cacheable, std::move(work),
                &immediate);
  if (!pending) {
    conn.write_frame(*immediate);
    return;
  }

  // Watch the client while its job is queued/running: an orderly
  // disconnect trips that job's token only -- every other in-flight job
  // is untouched.
  while (pending->done.wait_for(std::chrono::milliseconds(kPollMs)) !=
         std::future_status::ready) {
    if (!pending->cancel->cancelled() && peer_disconnected(conn.fd())) {
      pending->cancel->request_cancel(CancelReason::Api);
      counter("server.client_disconnects").add();
    }
  }
  const JobResult result = pending->done.get();
  if (result.lane_crashed) {
    // The executor lane died before the job ran.  Drop the connection
    // without a response: the client's transient-retry classification
    // (EOF before any response byte) resubmits the identical spec, which
    // lands on the recycled lane -- or, once completed, on the result
    // cache.
    counter("server.jobs_crashed").add();
    log_warn("server: lane crashed under job ", pending->job->id,
             "; dropping connection for client retry (", result.error, ")");
    keep_open = false;
    return;
  }
  conn.write_frame(finish_result(result, spec_hash, cacheable));
}

namespace {

/// Decoded executable form of one batch slot.  `error` is set instead
/// when the slot's bytes are malformed -- the slot's response, never the
/// batch's.
struct BatchSlotPlan {
  std::uint64_t deadline_ms = 0;
  std::uint64_t spec_hash = 0;
  bool cacheable = false;
  bool ok = false;
  ErrorResponse error;
};

}  // namespace

void TimingServer::handle_batch(Conn& conn, const BatchRequest& request) {
  const std::size_t n = request.items.size();
  struct Slot {
    std::optional<Frame> response;
    std::optional<PendingJob> pending;
    std::uint64_t spec_hash = 0;
    bool cacheable = false;
  };
  std::vector<Slot> slots(n);

  // Admission pass, in submission order: the per-lane binding is the
  // normal spec_hash % lanes, so identical specs inside one batch
  // serialize on one lane (determinism) while distinct specs spread over
  // the lanes and run concurrently.
  for (std::size_t i = 0; i < n; ++i) {
    const BatchItem& item = request.items[i];
    std::function<JobResult(const CancelToken*)> work;
    BatchSlotPlan plan;
    try {
      switch (static_cast<MsgType>(item.kind)) {
        case MsgType::AnalyzeRequest: {
          const AnalyzeRequest req = decode_analyze_request(item.body);
          plan.deadline_ms = req.deadline_ms;
          plan.spec_hash = job_spec_hash(req.spec);
          plan.cacheable = true;
          work = [this, spec = req.spec](const CancelToken* cancel) {
            return run_analyze_job(flow_, *pool_, spec, cancel);
          };
          plan.ok = true;
          break;
        }
        case MsgType::OptimizeRequest: {
          const OptimizeRequest req = decode_optimize_request(item.body);
          plan.deadline_ms = req.deadline_ms;
          plan.spec_hash = job_spec_hash(req.spec);
          plan.cacheable = false;  // optimize is never cached
          work = [this, spec = req.spec](const CancelToken* cancel) {
            return run_optimize_job(flow_, ensure_sized(), *pool_, spec,
                                    cancel);
          };
          plan.ok = true;
          break;
        }
        case MsgType::SstaRequest: {
          const SstaRequest req = decode_ssta_request(item.body);
          plan.deadline_ms = req.deadline_ms;
          plan.spec_hash = job_spec_hash(req.spec);
          plan.cacheable = true;
          work = [this, spec = req.spec](const CancelToken* cancel) {
            return run_ssta_job(flow_, *pool_, spec, cancel);
          };
          plan.ok = true;
          break;
        }
        default:
          plan.error = {ProtoStatus::BadType,
                        "batch slot " + std::to_string(i) + " kind " +
                            std::to_string(item.kind) +
                            " is not a job request"};
          break;
      }
    } catch (const ProtocolError& e) {
      // The malformed slot answers for itself; the rest of the batch is
      // untouched.
      plan.ok = false;
      plan.error = {e.status(), e.what()};
    }
    if (!plan.ok) {
      counter("server.bad_frames").add();
      slots[i].response =
          Frame{MsgType::ErrorResponse, encode_error_response(plan.error)};
      continue;
    }
    slots[i].spec_hash = plan.spec_hash;
    slots[i].cacheable = plan.cacheable;
    std::optional<Frame> immediate;
    slots[i].pending = admit_job(plan.deadline_ms, plan.spec_hash,
                                 plan.cacheable, std::move(work), &immediate);
    if (!slots[i].pending) slots[i].response = std::move(*immediate);
  }

  // Wait pass, again in submission order (results must come back in the
  // order specs were submitted).  One disconnect cancels every still-
  // pending slot: nobody is waiting for the answers any more.
  bool disconnected = false;
  for (std::size_t i = 0; i < n; ++i) {
    if (!slots[i].pending) continue;
    PendingJob& pending = *slots[i].pending;
    while (pending.done.wait_for(std::chrono::milliseconds(kPollMs)) !=
           std::future_status::ready) {
      if (!disconnected && peer_disconnected(conn.fd())) {
        disconnected = true;
        counter("server.client_disconnects").add();
        for (std::size_t j = i; j < n; ++j)
          if (slots[j].pending && !slots[j].pending->cancel->cancelled())
            slots[j].pending->cancel->request_cancel(CancelReason::Api);
      }
    }
    const JobResult result = pending.done.get();
    if (result.lane_crashed) {
      // Unlike the single-spec path (which drops the connection so the
      // retry layer resubmits), a batch already owes the client N slots;
      // the crash poisons only its own slot and says a resubmit is safe.
      counter("server.jobs_crashed").add();
      slots[i].response =
          Frame{MsgType::ErrorResponse,
                encode_error_response(
                    {ProtoStatus::ServerError,
                     "executor lane crashed before the job ran; "
                     "resubmitting this spec is safe (" +
                         result.error + ")"})};
      continue;
    }
    slots[i].response =
        finish_result(result, slots[i].spec_hash, slots[i].cacheable);
  }

  BatchResponse response;
  response.slots.reserve(n);
  for (Slot& slot : slots)
    response.slots.push_back({slot.response->type,
                              std::move(slot.response->body)});
  conn.write_frame(
      {MsgType::BatchResponse, encode_batch_response(response)});
}

void TimingServer::handle_request(Conn& conn, const Frame& request,
                                  bool& keep_open) {
  switch (request.type) {
    case MsgType::PingRequest:
      conn.write_frame({MsgType::PongResponse, ""});
      return;
    case MsgType::HealthRequest:
      // Answered inline, never queued: a health probe must succeed even
      // while every lane is saturated.
      conn.write_frame({MsgType::HealthResponse,
                        encode_health_response(health_snapshot())});
      return;
    case MsgType::MetricsRequest: {
      MetricsResponse m;
      m.rendered = MetricsRegistry::global().render();
      m.json = MetricsRegistry::global().render_json();
      conn.write_frame(
          {MsgType::MetricsResponse, encode_metrics_response(m)});
      return;
    }
    case MsgType::ShutdownRequest:
      conn.write_frame({MsgType::ShutdownAck, ""});
      request_stop();
      keep_open = false;
      return;
    case MsgType::AnalyzeRequest: {
      const AnalyzeRequest req = decode_analyze_request(request.body);
      submit_and_wait(conn, req.deadline_ms, job_spec_hash(req.spec),
                      /*cacheable=*/true,
                      [this, spec = req.spec](const CancelToken* cancel) {
                        return run_analyze_job(flow_, *pool_, spec, cancel);
                      },
                      keep_open);
      return;
    }
    case MsgType::OptimizeRequest: {
      const OptimizeRequest req = decode_optimize_request(request.body);
      // Never cached: optimize mutates artifacts and its cost is the
      // product.
      submit_and_wait(conn, req.deadline_ms, job_spec_hash(req.spec),
                      /*cacheable=*/false,
                      [this, spec = req.spec](const CancelToken* cancel) {
                        return run_optimize_job(flow_, ensure_sized(), *pool_,
                                                spec, cancel);
                      },
                      keep_open);
      return;
    }
    case MsgType::SstaRequest: {
      const SstaRequest req = decode_ssta_request(request.body);
      submit_and_wait(conn, req.deadline_ms, job_spec_hash(req.spec),
                      /*cacheable=*/true,
                      [this, spec = req.spec](const CancelToken* cancel) {
                        return run_ssta_job(flow_, *pool_, spec, cancel);
                      },
                      keep_open);
      return;
    }
    case MsgType::BatchRequest: {
      const BatchRequest req = decode_batch_request(request.body);
      handle_batch(conn, req);
      return;
    }
    default:
      conn.write_frame({MsgType::ErrorResponse,
                        encode_error_response(
                            {ProtoStatus::BadType,
                             std::string("unexpected message type ") +
                                 msg_type_name(request.type)})});
      keep_open = false;
      return;
  }
}

void TimingServer::handle_connection(Conn conn) {
  bool keep_open = true;
  auto last_activity = std::chrono::steady_clock::now();
  while (keep_open && !stop_.load()) {
    // Idle wait with a bounded poll so a draining server can close idle
    // connections instead of blocking in read() forever.
    int ready = 0;
    try {
      ready = poll_readable(conn.fd(), kPollMs);
    } catch (const std::exception&) {
      break;
    }
    if (ready < 0) break;   // peer hung up while idle
    if (ready == 0) {
      const std::uint64_t idle_budget = conn.limits().idle_timeout_ms;
      const auto idle_ms =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              std::chrono::steady_clock::now() - last_activity)
              .count();
      if (idle_budget > 0 &&
          static_cast<std::uint64_t>(idle_ms) > idle_budget) {
        // A parked connection holds a handler thread and a --max-conns
        // slot; reclaim it like any other slow peer.
        counter("server.conn.evicted_slow").add();
        log_warn("server: idle connection evicted after ", idle_ms, " ms");
        break;
      }
      continue;
    }
    try {
      // Injected read faults and malformed frames cost this connection,
      // never the daemon: structured error response where the stream
      // still has integrity, then drop.
      SVA_FAILPOINT("server.read");
      std::optional<Frame> frame = conn.read_frame();
      if (!frame) break;  // clean EOF
      handle_request(conn, *frame, keep_open);
      last_activity = std::chrono::steady_clock::now();
    } catch (const SlowPeerError& e) {
      // The peer started a frame (or stopped draining its responses) and
      // then stalled past its budget: evict so the handler thread and
      // connection slot return to the pool.
      counter("server.conn.evicted_slow").add();
      log_warn("server: slow peer evicted (", e.what(), ")");
      break;
    } catch (const ProtocolError& e) {
      counter("server.bad_frames").add();
      try {
        conn.write_frame({MsgType::ErrorResponse,
                          encode_error_response({e.status(), e.what()})});
      } catch (const std::exception&) {
      }
      break;
    } catch (const std::exception& e) {
      counter("server.connection_faults").add();
      log_warn("server: connection dropped (", e.what(), ")");
      break;
    }
  }
}

}  // namespace sva
