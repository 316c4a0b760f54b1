// A small work-sharing thread pool with a parallel_for primitive.
//
// The paper's shared-memory experiments (Cray Y-MP, section 9) parallelize
// the application of the block reflector across the generator's block
// columns.  We provide the same capability via an explicit pool rather than
// OpenMP so the code is self-contained and the chunking policy is visible.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace bst::util {

/// Per-worker utilization counters (observability; sampled by worker_stats).
struct WorkerStats {
  double busy_seconds = 0.0;  // time executing parallel_for chunks
  double idle_seconds = 0.0;  // time parked waiting for work
  std::uint64_t chunks = 0;   // chunks claimed and executed
};

/// Fixed-size pool of worker threads executing index-range chunks.
class ThreadPool {
 public:
  /// Creates `workers` threads; 0 means use the hardware concurrency.
  explicit ThreadPool(std::size_t workers = 0);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads (>= 1).
  [[nodiscard]] std::size_t size() const noexcept { return threads_.size() + 1; }

  /// Runs body(i) for i in [begin, end), splitting the range across the
  /// pool plus the calling thread.  Blocks until every index has run.
  /// `grain` is the minimum chunk size.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& body,
                    std::size_t grain = 1);

  /// Process-wide default pool (lazy, sized from BST_THREADS or hardware;
  /// a BST_THREADS outside 1 .. 1024 throws on first use, util/env.h).
  static ThreadPool& global();

  /// True while the calling thread is inside a parallel_for: always for pool
  /// workers, and for the dispatching caller between fan-out and join.
  /// Kernels consult this to stay serial instead of nesting parallelism.
  static bool in_parallel_region() noexcept;

  /// Snapshot of the per-thread utilization counters: slot 0 is the calling
  /// thread's share of parallel_for work, slots 1..size()-1 the workers.
  /// Busy/idle times only accumulate while util::Tracer is enabled (the
  /// instrumentation is two clock reads per chunk batch / wait otherwise
  /// avoided); chunk counts always accumulate.
  [[nodiscard]] std::vector<WorkerStats> worker_stats() const;

  /// Zeroes the utilization counters (e.g. at the start of a profiled run)
  /// and schedules a thread-local FlopCounter/ByteCounter reset on every
  /// worker: each worker re-zeroes its counters before claiming its next
  /// chunk, so back-to-back profiled solves in one process do not inherit
  /// the previous run's charges.  The *calling* thread's counters are left
  /// alone -- an enclosing FlopScope/TraceSpan on the caller must keep its
  /// baseline (callers reset their own counters explicitly if desired).
  void reset_worker_stats();

 private:
  struct Task {
    std::size_t begin = 0, end = 0, grain = 1;
    // The dispatch this task belongs to: a worker that wakes after its
    // parallel_for returned still holds the finished task, and must not
    // claim the next dispatch's indices for the destroyed body.
    std::size_t generation = 0;
    const std::function<void(std::size_t)>* body = nullptr;
    // Flop/byte charges made by pool workers while executing this task's
    // chunks; parallel_for adds them to the *caller's* thread-local counters
    // at join, so totals are identical to a serial run (merge-on-join).
    // Point into the dispatching parallel_for's frame; workers only touch
    // them after claiming at least one chunk, which the join waits for.
    std::atomic<std::uint64_t>* flops = nullptr;
    std::atomic<std::uint64_t>* bytes = nullptr;
  };

  // Padded so workers on different cores do not share counter cache lines.
  struct alignas(64) StatSlot {
    std::atomic<std::uint64_t> busy_ns{0};
    std::atomic<std::uint64_t> idle_ns{0};
    std::atomic<std::uint64_t> chunks{0};
  };

  void worker_loop(std::size_t slot);
  std::uint64_t run_chunks(Task& task, StatSlot& stats);  // returns chunks run
  // run_chunks plus the merge-on-join counter publication (see .cc).
  void run_and_merge(Task& task, StatSlot& stats);
  // Serial fallback (empty pool, tiny range, or another dispatch in flight);
  // marks the calling thread as inside a parallel region for the duration.
  static void run_inline(std::size_t begin, std::size_t end,
                         const std::function<void(std::size_t)>& body);

  // Bumped by reset_worker_stats(); workers compare against a thread-local
  // copy and zero their FlopCounter/ByteCounter when it moved.
  std::atomic<std::uint64_t> counter_epoch_{0};

  // Dispatch guard: set while a parallel_for owns the workers.  A second
  // caller (another application thread, or a body nesting a parallel_for)
  // runs its range inline instead of corrupting the shared task slot.
  std::atomic<bool> busy_{false};

  std::vector<std::thread> threads_;
  std::vector<StatSlot> stats_;  // size() entries; fixed after construction
  std::mutex mu_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  Task task_;
  std::size_t next_ = 0;       // next unclaimed index of the active task
  std::size_t inflight_ = 0;   // workers still executing chunks
  std::size_t generation_ = 0; // bumped per parallel_for to wake workers
  bool stop_ = false;
};

}  // namespace bst::util
