// Fixed-size worker pool for the per-user analysis fan-out.
//
// The realtime engine re-runs the Fig. 10 workflow for every tracked
// user once per update tick; the per-user analyses are independent
// (BreathMonitor::analyze_users is const over a const demux), so they
// parallelise embarrassingly. The pool owns N persistent threads; the
// caller participates too, so `run` uses N+1 execution slots. Work is
// claimed from a shared atomic index (dynamic load balancing — user
// windows vary wildly in read count), and each job invocation receives
// the executing slot id so callers can maintain per-slot scratch arenas
// (FFT workspaces) without locking.
//
// Determinism: the pool schedules *which thread* computes each index
// nondeterministically, but callers write results into per-index slots
// and consume them in index order, so the observable output is
// independent of thread count and interleaving.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace tagbreathe::core {

class AnalysisPool {
 public:
  /// Spawns `threads` persistent workers. 0 => no threads; run() then
  /// executes inline on the caller (the serial engine).
  explicit AnalysisPool(std::size_t threads);
  ~AnalysisPool();

  AnalysisPool(const AnalysisPool&) = delete;
  AnalysisPool& operator=(const AnalysisPool&) = delete;

  /// Worker threads owned by the pool.
  std::size_t threads() const noexcept { return threads_.size(); }

  /// Execution slots: workers + the participating caller. Size per-slot
  /// scratch arenas with this.
  std::size_t slots() const noexcept { return threads_.size() + 1; }

  /// Runs job(index, slot) for every index in [0, n), blocking until
  /// all complete. slot < slots(); the caller runs as slot 0. If any
  /// invocation throws, the first exception is rethrown here after the
  /// batch drains. Not reentrant: one run() at a time per pool.
  void run(std::size_t n,
           const std::function<void(std::size_t index, std::size_t slot)>& job);

 private:
  void worker_loop(std::size_t slot);
  void work_through(const std::function<void(std::size_t, std::size_t)>& job,
                    std::size_t n, std::size_t slot);

  std::vector<std::thread> threads_;

  std::mutex mutex_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  const std::function<void(std::size_t, std::size_t)>* job_ = nullptr;
  std::size_t batch_n_ = 0;
  std::uint64_t generation_ = 0;
  std::size_t workers_active_ = 0;
  std::exception_ptr first_error_;
  bool stopping_ = false;

  /// Shared work-claim index, hammered by every slot during a batch.
  /// Own cache line: without the alignment it shares a line with the
  /// cold batch bookkeeping above, and each claim's RMW would bounce
  /// that line through every core reading the bookkeeping.
  alignas(64) std::atomic<std::size_t> next_{0};
};

}  // namespace tagbreathe::core
