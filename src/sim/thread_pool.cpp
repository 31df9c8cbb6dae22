#include "sim/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>

namespace sysdp::sim {

namespace {

/// Lane of the current thread: 0 for any non-pool thread (including the
/// parallel_for_dynamic caller), 1..workers for pool workers.  Thread-local
/// so a span reported from inside a task lands on the lane that ran it.
thread_local std::size_t tl_lane = 0;

}  // namespace

ThreadPool::ThreadPool(std::size_t workers) {
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i + 1); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

std::uint64_t ThreadPool::now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void ThreadPool::note_span(PoolObserver::SpanKind kind, std::uint64_t t0_ns,
                           std::uint64_t t1_ns) const {
  if (observer_ != nullptr) observer_->on_span(tl_lane, kind, t0_ns, t1_ns);
}

void ThreadPool::worker_loop(std::size_t lane) {
  tl_lane = lane;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
  }
}

/// Shared state of one parallel_for_dynamic call: a monotone claim counter
/// lanes race on, plus a countdown the caller blocks on.  A lane's
/// whole participation (all blocks it claimed) is reported as one kChunk
/// span — the trace shows lane occupancy, not per-block noise.
struct ThreadPool::DynJob {
  const std::function<void(std::size_t)>* body;
  std::size_t n;
  std::size_t grain;
  const ThreadPool* pool;
  std::atomic<std::size_t> next;
  std::atomic<std::size_t> remaining;  ///< lanes still running
  std::mutex done_mu;
  std::condition_variable done_cv;

  void run_lane() {
    const bool timed = pool->observer() != nullptr;
    const std::uint64_t t0 = timed ? ThreadPool::now_ns() : 0;
    for (;;) {
      const std::size_t lo = next.fetch_add(grain, std::memory_order_relaxed);
      if (lo >= n) break;
      const std::size_t hi = std::min(lo + grain, n);
      for (std::size_t i = lo; i < hi; ++i) (*body)(i);
    }
    if (timed) {
      pool->note_span(PoolObserver::SpanKind::kChunk, t0,
                      ThreadPool::now_ns());
    }
    if (remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      std::lock_guard<std::mutex> lock(done_mu);
      done_cv.notify_one();
    }
  }
};

void ThreadPool::parallel_for_dynamic(
    std::size_t n, const std::function<void(std::size_t)>& body,
    std::size_t grain) {
  if (n == 0) return;
  if (grain == 0) {
    // Enough blocks for ~8 claims per lane (load balance) without paying an
    // atomic per index when n is large.
    grain = std::max<std::size_t>(1, n / (num_lanes() * 8));
  }
  if (workers_.empty() || n == 1) {
    const bool timed = observer_ != nullptr;
    const std::uint64_t t0 = timed ? now_ns() : 0;
    for (std::size_t i = 0; i < n; ++i) body(i);
    if (timed) note_span(PoolObserver::SpanKind::kChunk, t0, now_ns());
    return;
  }
  // More lanes than blocks would only queue tasks that claim nothing.
  const std::size_t lanes =
      std::min(num_lanes(), (n + grain - 1) / grain);
  auto job = std::make_shared<DynJob>();
  job->body = &body;
  job->n = n;
  job->grain = grain;
  job->pool = this;
  job->next.store(0, std::memory_order_relaxed);
  job->remaining.store(lanes, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (std::size_t c = 1; c < lanes; ++c) {
      queue_.push([job] { job->run_lane(); });
    }
  }
  cv_.notify_all();
  job->run_lane();  // the caller is lane 0
  const bool timed = observer_ != nullptr;
  const std::uint64_t w0 = timed ? now_ns() : 0;
  std::unique_lock<std::mutex> lock(job->done_mu);
  job->done_cv.wait(lock, [&] {
    return job->remaining.load(std::memory_order_acquire) == 0;
  });
  if (timed) {
    lock.unlock();
    note_span(PoolObserver::SpanKind::kBarrierWait, w0, now_ns());
  }
}

}  // namespace sysdp::sim
