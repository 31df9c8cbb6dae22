// Fixed-size worker pool for job-level parallelism.
//
// One simulation or replay always runs on one thread; the pool spreads
// *independent* jobs — sweep points, batched replay chunks — across host
// threads.  Two entry points:
//
//   * parallel_for_dynamic(n, body, grain): lanes (workers + the calling
//     thread) claim index blocks off a shared counter and the call blocks
//     until every index is done.  BatchRunner is built on this.
//   * submit(fn) -> future: enqueue one independent task.
//
// The pool never spins: idle workers sleep on a condition variable.  A
// pool of size 0 is legal and means "no worker threads": both entry points
// degenerate to inline execution on the caller, which keeps thread-count
// sweeps (including 1) trivial to express.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <type_traits>
#include <vector>

namespace sysdp::sim {

/// Host-layer telemetry hook: receives wall-clock spans of pool activity
/// so chrome-trace exporters can show where BatchSpeedup's time goes.
///
///   * kChunk       — one lane's whole share of a parallel_for_dynamic
///   * kTask        — one submit()ted task executing on a worker
///   * kBarrierWait — the calling thread blocked on the parallel_for_dynamic
///                    barrier after running out of blocks to claim (work
///                    vs. wait, the number that explains fork-join overhead)
///
/// on_span is called concurrently from every lane; implementations must be
/// thread-safe.  Timestamps are steady-clock nanoseconds (same epoch for
/// every span of one process, so spans are directly comparable).
class PoolObserver {
 public:
  enum class SpanKind : std::uint8_t { kChunk, kTask, kBarrierWait };

  virtual ~PoolObserver() = default;
  virtual void on_span(std::size_t lane, SpanKind kind, std::uint64_t t0_ns,
                      std::uint64_t t1_ns) = 0;
};

class ThreadPool {
 public:
  /// `workers` worker threads in addition to the calling thread;
  /// `default_workers()` picks hardware_concurrency - 1.
  explicit ThreadPool(std::size_t workers = default_workers());
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Worker threads owned by the pool (the calling thread adds one more
  /// lane during parallel_for_dynamic).
  [[nodiscard]] std::size_t num_workers() const noexcept {
    return workers_.size();
  }
  /// Concurrent lanes available to parallel_for_dynamic: workers + caller.
  [[nodiscard]] std::size_t num_lanes() const noexcept {
    return workers_.size() + 1;
  }

  [[nodiscard]] static std::size_t default_workers() noexcept {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 1 ? hw - 1 : 0;
  }

  /// Run body(i) for every i in [0, n), blocking until all are done.
  /// Lanes *claim* `grain`-sized index blocks off a shared counter, so a
  /// slow job never serialises the jobs behind it: every lane stays busy
  /// until the work runs out, at the cost of one atomic fetch-add per
  /// block — which is why tiny jobs should be claimed several at a time
  /// (grain).  `grain == 0` picks a heuristic; which indices run on which
  /// lane is scheduling-dependent, so bodies must not care (BatchRunner's
  /// index-addressed result slots satisfy this by construction).  body
  /// must not recursively call parallel_for_dynamic on the same pool.
  void parallel_for_dynamic(std::size_t n,
                            const std::function<void(std::size_t)>& body,
                            std::size_t grain = 0);

  /// Attach (or detach, with nullptr) the telemetry observer.  Borrowed,
  /// not owned.  Not synchronised: set it while no parallel_for_dynamic or
  /// submitted task is in flight, and only from the owning thread.
  void set_observer(PoolObserver* obs) noexcept { observer_ = obs; }
  [[nodiscard]] PoolObserver* observer() const noexcept { return observer_; }

  /// Steady-clock nanoseconds on the epoch PoolObserver spans use.
  [[nodiscard]] static std::uint64_t now_ns() noexcept;

  /// Enqueue one independent task; returns a future for its result.  With
  /// an observer attached the task is timed and reported as a kTask span.
  template <typename Fn>
  auto submit(Fn&& fn) -> std::future<std::invoke_result_t<Fn>> {
    using R = std::invoke_result_t<Fn>;
    if (observer_ != nullptr) {
      return submit_impl<R>([this, fn = std::forward<Fn>(fn)]() mutable -> R {
        const std::uint64_t t0 = now_ns();
        if constexpr (std::is_void_v<R>) {
          fn();
          note_span(PoolObserver::SpanKind::kTask, t0, now_ns());
        } else {
          R r = fn();
          note_span(PoolObserver::SpanKind::kTask, t0, now_ns());
          return r;
        }
      });
    }
    return submit_impl<R>(std::forward<Fn>(fn));
  }

 private:
  struct DynJob;

  template <typename R, typename Fn>
  std::future<R> submit_impl(Fn&& fn) {
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<Fn>(fn));
    std::future<R> fut = task->get_future();
    if (workers_.empty()) {
      (*task)();  // no workers: run inline
      return fut;
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      queue_.push([task] { (*task)(); });
    }
    cv_.notify_one();
    return fut;
  }

  void worker_loop(std::size_t lane);
  /// Forward a span to the observer, stamping the calling thread's lane.
  void note_span(PoolObserver::SpanKind kind, std::uint64_t t0_ns,
                 std::uint64_t t1_ns) const;

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::queue<std::function<void()>> queue_;
  bool stop_ = false;
  PoolObserver* observer_ = nullptr;
};

}  // namespace sysdp::sim
