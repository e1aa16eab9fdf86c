// qpp::par — the shared parallel compute core.
//
// A small fixed-size thread pool with one job: run grain-sized chunks of an
// index range on several threads *without ever changing a numeric result*.
// Every hot loop in linalg/ and ml/ (kernel-matrix construction, the Gram
// products and triangular solves of the exact KCCA solver, batch projection
// and batch kNN on the serving path) routes through this pool, so training
// and batch prediction scale with cores while staying bit-identical to the
// single-threaded code they replaced.
//
// Determinism contract
// --------------------
//  * Static partitioning: a range [begin, end) with grain g is always split
//    into the same chunks — chunk c covers [begin + c*g, min(end, begin +
//    (c+1)*g)). The split depends only on (range, grain), NEVER on the
//    thread count, so per-chunk partial results are the same objects no
//    matter how many threads exist.
//  * Static assignment: chunk c runs on share (c mod shares); no work
//    stealing, no dynamic scheduling.
//  * Fixed reduce order: DeterministicReduce (parallel_for.h) combines the
//    per-chunk partials sequentially in ascending chunk order. Together
//    with the fixed split this makes floating-point reductions bit-identical
//    across QPP_THREADS = 1, 2, 8, ... — verified by tests/par_test.cpp,
//    which trains and serializes full models at several thread counts and
//    asserts byte equality.
//  * Elementwise ParallelFor bodies write disjoint outputs, so for them the
//    contract is simply that the same (begin, end, grain, body) runs the
//    same per-element arithmetic as a sequential loop would.
//
// Sizing: the global pool reads QPP_THREADS (clamped to [1, 1024]) at first
// use, falling back to std::thread::hardware_concurrency(). A pool of size
// T spawns T-1 workers; the calling thread always executes share 0, so
// QPP_THREADS=1 never creates a thread and every region runs inline.
// Nested regions (a parallel body calling another parallel op) execute
// inline on the worker that hit them — same values, no deadlock.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace qpp::obs {
class MetricsRegistry;
class TraceRecorder;
}  // namespace qpp::obs

namespace qpp::par {

class ThreadPool {
 public:
  /// A pool of `threads` total compute threads (>= 1): `threads - 1`
  /// workers plus the caller of Execute().
  explicit ThreadPool(size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t threads() const { return threads_; }

  /// The fixed chunking rule: ceil((end - begin) / grain) chunks, the last
  /// one possibly partial. Depends only on the range and grain.
  static size_t NumChunks(size_t begin, size_t end, size_t grain);

  /// Runs fn(chunk_begin, chunk_end, chunk_index) for every chunk of
  /// [begin, end), blocking until all chunks finished. Chunks are assigned
  /// round-robin to at most `threads()` shares; runs entirely inline when
  /// the pool has one thread, there is one chunk, or the caller is already
  /// inside a parallel region. Rethrows the first chunk exception after
  /// the region drains (remaining chunks of the failing region are
  /// skipped).
  void Execute(size_t begin, size_t end, size_t grain,
               const std::function<void(size_t, size_t, size_t)>& fn);

 private:
  struct Region {
    const std::function<void(size_t, size_t, size_t)>* fn = nullptr;
    size_t begin = 0;
    size_t grain = 0;
    size_t end = 0;
    size_t chunks = 0;
    size_t shares = 0;
    std::mutex mu;
    std::condition_variable done_cv;
    size_t pending = 0;
    std::exception_ptr error;
    bool failed = false;  ///< set with `mu`; later chunks bail out early
  };

  void WorkerLoop();
  void RunShare(Region* region, size_t share);

  const size_t threads_;
  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::pair<Region*, size_t>> queue_;
  bool stop_ = false;
};

/// The process-wide pool, created lazily with DefaultThreads(). Once it
/// exists a lookup is one acquire load of the published pointer, with no
/// lock; only first-use creation (and SetGlobalThreads) take the pool
/// mutex.
ThreadPool& GlobalPool();

/// Total compute threads the global pool uses (pool size, not worker
/// count). Creates the pool on first call.
size_t EffectiveThreads();

/// Replaces the global pool with one of `n` threads, under the pool mutex.
/// Joins the old pool's workers first, so a reference an earlier
/// GlobalPool() returned dangles: call it only while the process is
/// quiescent — no parallel region in flight and no other thread about to
/// start one. Intended for process startup and the cross-thread-count
/// determinism tests.
void SetGlobalThreads(size_t n);

/// QPP_THREADS env var if set and valid, else hardware_concurrency(),
/// clamped to [1, 1024].
size_t DefaultThreads();

/// Wires the par layer into an observability sink. Registers
/// `qpp_par_tasks_total` (chunks executed) and `qpp_par_queue_depth`
/// (worker queue depth gauge) on `registry`, and wraps every parallel
/// region in a trace span (category "par") on `trace`. Either may be null;
/// pass (nullptr, nullptr) to detach before the sinks are destroyed. Not
/// synchronized against in-flight regions — call from quiescent setup /
/// teardown code.
void SetObservability(obs::MetricsRegistry* registry,
                      obs::TraceRecorder* trace);

/// The trace recorder handed to SetObservability (null when detached).
/// Lets callers (e.g. SlidingWindowPredictor::Retrain) put their own spans
/// on the same "par" timeline.
obs::TraceRecorder* ObservedTrace();

}  // namespace qpp::par
