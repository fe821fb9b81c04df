#include "engine/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>

#include "engine/metrics.hpp"
#include "util/failpoint.hpp"

namespace sva {

namespace {

/// One parallel_for, shared between its caller and its helper tasks.  A
/// helper can start after the caller returned, so everything a helper
/// touches before it has joined lives here; `fn` and `cancel` belong to
/// the caller and are only used by lanes that joined while the loop was
/// open (the caller waits for those).
struct ClaimLoop {
  ClaimLoop(std::size_t begin, std::size_t end, std::size_t grain,
            const std::function<void(std::size_t)>& fn,
            const CancelToken* cancel)
      : end(end), grain(grain), fn(&fn), cancel(cancel), next(begin) {}

  /// Claim chunks until the counter runs out.  Bodies never throw out: the
  /// first failure is kept for the caller to rethrow after the join.
  void run() {
    for (;;) {
      const std::size_t lo = next.fetch_add(grain, std::memory_order_relaxed);
      if (lo >= end) return;
      const std::size_t hi = std::min(end, lo + grain);
      try {
        // An injected task fault surfaces exactly like a real one:
        // rethrown at the call, where the owner's isolation boundary
        // classifies it.
        SVA_FAILPOINT("engine.task");
        if (cancel) cancel->check();
        for (std::size_t i = lo; i < hi; ++i) (*fn)(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mu);
        if (!error) error = std::current_exception();
      }
    }
  }

  const std::size_t end;
  const std::size_t grain;
  const std::function<void(std::size_t)>* const fn;
  const CancelToken* const cancel;
  std::atomic<std::size_t> next;
  std::mutex mu;
  std::condition_variable joined_cv;
  bool closed = false;        ///< guarded by mu: no helper may join any more
  std::size_t helpers = 0;    ///< guarded by mu: helpers inside run()
  std::exception_ptr error;   ///< guarded by mu: first failure
};

}  // namespace

std::size_t ThreadPool::default_thread_count() {
  return std::max(1u, std::thread::hardware_concurrency());
}

ThreadPool::ThreadPool(std::size_t threads) {
  threads_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i)
    threads_.emplace_back([this] { worker_main(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    tasks_.push_back(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::worker_main() {
  Counter& executed = MetricsRegistry::global().counter("engine.tasks");
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (tasks_.empty()) return;  // stopping and drained
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    task();
    executed.add();
  }
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t)>& fn,
                              std::size_t grain,
                              const CancelToken* cancel) {
  if (end <= begin) return;
  const std::size_t n = end - begin;
  if (grain == 0) {
    // ~4 chunks per lane balances uneven chunks without drowning small
    // loops in claim overhead.
    grain = std::max<std::size_t>(1, n / (4 * (thread_count() + 1)));
  }
  const std::size_t chunks = (n + grain - 1) / grain;
  const auto loop = std::make_shared<ClaimLoop>(begin, end, grain, fn, cancel);
  const std::size_t helpers = std::min(thread_count(), chunks - 1);
  for (std::size_t h = 0; h < helpers; ++h) {
    submit([loop] {
      {
        std::lock_guard<std::mutex> lock(loop->mu);
        if (loop->closed) return;
        ++loop->helpers;
      }
      loop->run();
      std::lock_guard<std::mutex> lock(loop->mu);
      if (--loop->helpers == 0) loop->joined_cv.notify_all();
    });
  }
  loop->run();
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(loop->mu);
    loop->closed = true;
    loop->joined_cv.wait(lock, [&] { return loop->helpers == 0; });
    error = loop->error;
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace sva
