#pragma once
// Thread pool with one parallel primitive: parallel_for, a claim loop.
//
// One atomic counter hands out the loop's chunks in ascending order.  The
// calling thread runs the claim loop itself, together with up to
// thread_count() helper tasks queued on the pool, so a loop has at most
// thread_count() + 1 lanes.  When the counter runs out the caller closes
// the loop and blocks on a condition variable until the helpers that
// already joined have finished their chunks; a helper that starts after
// the close returns at once without touching the caller's body or data.
// There is no cooperative waiting: no thread ever runs a queued task
// while it waits, so a timer around a loop body only counts that body.
//
// Nested parallel_for calls cannot deadlock -- a caller never waits on a
// queued task that has not started -- and a pool with zero threads still
// works: the caller then runs every chunk itself.

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "util/cancel.hpp"

namespace sva {

class ThreadPool {
 public:
  /// Spawns `threads` workers.  0 => no worker threads; every parallel_for
  /// runs on its calling thread.
  explicit ThreadPool(std::size_t threads = default_thread_count());
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// std::thread::hardware_concurrency, floored at 1.
  static std::size_t default_thread_count();

  std::size_t thread_count() const { return threads_.size(); }

  /// Parallel loop over [begin, end): fn(i) for every index, in chunks of
  /// ~`grain` indices (0 => automatic) claimed in ascending order.  Blocks
  /// until every chunk ran; the calling thread is one of the lanes.
  /// Writes to distinct locations per index are race-free; indices of one
  /// chunk run in order on one thread, chunks run in no particular order.
  ///
  /// Before each chunk the "engine.task" failpoint fires and a non-null
  /// `cancel` is polled; either skips that chunk's body.  A throwing chunk
  /// does not stop the others: after the join the first captured failure
  /// is rethrown (CancelledError once the token trips), so chunks that did
  /// run ran completely -- a caller observing CancelledError knows its
  /// state is a clean prefix, never a torn update.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& fn,
                    std::size_t grain = 0,
                    const CancelToken* cancel = nullptr);

 private:
  void submit(std::function<void()> task);
  void worker_main();

  std::vector<std::thread> threads_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> tasks_;  ///< guarded by mu_
  bool stop_ = false;                         ///< guarded by mu_
};

}  // namespace sva
