#include "support/thread_pool.hpp"

#include <algorithm>

#include "obs/span.hpp"

namespace jepo {

ThreadPool::ThreadPool(std::size_t threads) {
  obs::Registry& reg = obs::Registry::global();
  tasks_ = &reg.counter("pool.tasks");
  queueDepth_ = &reg.gauge("pool.queue.depth");
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { workerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::workerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mu_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
      queueDepth_->set(static_cast<std::int64_t>(queue_.size()));
    }
    tasks_->add();
    obs::Span span("pool.task");
    task();
  }
}

void parallelFor(ThreadPool& pool, std::size_t n,
                 const std::function<void(std::size_t)>& body) {
  std::vector<std::future<void>> futures;
  futures.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    futures.push_back(pool.submit([&body, i] { body(i); }));
  }
  // Drain every future before rethrowing: tasks capture `body` by
  // reference, so returning (even by exception) while tasks are still
  // queued would leave them invoking a dangling std::function.
  std::exception_ptr first;
  for (auto& f : futures) {
    try {
      f.get();
    } catch (...) {
      if (!first) first = std::current_exception();
    }
  }
  if (first) std::rethrow_exception(first);
}

}  // namespace jepo
