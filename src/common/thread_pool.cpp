#include "common/thread_pool.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace meteo {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  METEO_EXPECTS(task != nullptr);
  {
    const std::lock_guard lock(mutex_);
    METEO_EXPECTS(!stopping_);
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::worker_loop() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void ThreadPool::parallel_for_chunked(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t)>& body) {
  METEO_EXPECTS(begin <= end);
  if (begin == end) return;
  const std::size_t total = end - begin;
  // Over-decompose by 4x for load balance on uneven chunks.
  const std::size_t chunks =
      std::min(total, std::max<std::size_t>(1, thread_count() * 4));
  const std::size_t chunk_size = (total + chunks - 1) / chunks;

  // `remaining` is guarded by done_mutex: the last job must still hold
  // the lock when it notifies, or the caller could see 0, return and
  // destroy done_mutex/done_cv under it.
  std::size_t remaining = (total + chunk_size - 1) / chunk_size;
  std::exception_ptr first_error;
  std::mutex error_mutex;
  std::mutex done_mutex;
  std::condition_variable done_cv;

  for (std::size_t lo = begin; lo < end; lo += chunk_size) {
    const std::size_t hi = std::min(lo + chunk_size, end);
    // meteo-lint: borrow_ok(parallel_for_chunked blocks on done_cv below until every job drains)
    submit([&, lo, hi] {
      try {
        body(lo, hi);
      } catch (...) {
        const std::lock_guard lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
      const std::lock_guard lock(done_mutex);
      if (--remaining == 0) done_cv.notify_one();
    });
  }

  std::unique_lock lock(done_mutex);
  done_cv.wait(lock, [&] { return remaining == 0; });
  if (first_error) std::rethrow_exception(first_error);
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t)>& body) {
  parallel_for_chunked(begin, end, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) body(i);
  });
}

}  // namespace meteo
