// A small work-stealing-free thread pool plus a parallelFor helper.
//
// Cross-validation folds, forest tree growth and benchmark sweeps are
// embarrassingly parallel; following the HPC guides the parallelism is
// explicit — callers decide what is parallel and the pool only schedules.
// Determinism note: callers must give each task its own RNG stream (Rng::
// split or deriveSeed) and write to disjoint output slots, so results are
// independent of scheduling order.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/registry.hpp"
#include "support/error.hpp"

namespace jepo {

/// How a caller asks for parallelism. `threads == 0` means "one thread per
/// hardware core"; `threads == 1` means strictly serial (no pool is built,
/// so single-threaded callers pay nothing). Experiment configs embed this
/// knob; the determinism contract is that results are identical for every
/// value of `threads`.
struct ParallelConfig {
  std::size_t threads = 1;

  bool serial() const noexcept { return threads == 1; }

  /// The worker count a ThreadPool built from this config will have.
  std::size_t resolvedThreads() const noexcept {
    if (threads != 0) return threads;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
  }
};

class ThreadPool {
 public:
  /// `threads == 0` means hardware_concurrency (at least 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t threadCount() const noexcept { return workers_.size(); }

  /// Enqueue a task; the future reports its result or exception.
  template <typename F>
  auto submit(F&& f) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> fut = task->get_future();
    {
      std::lock_guard lock(mu_);
      JEPO_REQUIRE(!stopping_, "submit on a stopped ThreadPool");
      queue_.emplace_back([task] { (*task)(); });
      queueDepth_->set(static_cast<std::int64_t>(queue_.size()));
    }
    cv_.notify_one();
    return fut;
  }

 private:
  void workerLoop();

  std::mutex mu_;
  std::condition_variable cv_;  // workers wait for tasks
  std::deque<std::function<void()>> queue_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;

  // Obs instruments, resolved once at construction (the registry lookup
  // takes a shard mutex; the instruments themselves are lock-free).
  // Counters/gauges are coarse (per task, not per op) and stay on
  // unconditionally; task *spans* are gated on obs::enabled().
  obs::Counter* tasks_ = nullptr;
  obs::Gauge* queueDepth_ = nullptr;
};

/// Run body(i) for i in [0, n), spread over the pool. Waits for ALL tasks
/// to finish (success or failure) before returning, then rethrows the
/// first exception in index order — so `body` (captured by reference) is
/// never invoked after parallelFor returns. Safe to call with n == 0.
void parallelFor(ThreadPool& pool, std::size_t n,
                 const std::function<void(std::size_t)>& body);

}  // namespace jepo
