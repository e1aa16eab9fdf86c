#include "par/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <string>

#include "common/check.h"
#include "obs/registry.h"

namespace qpp::par {

namespace {

// True while the current thread is executing chunks of a region (pool
// workers permanently, callers during their own share). Nested Execute()
// calls from such a thread run inline.
thread_local bool tl_in_region = false;

// Observability sinks (see SetObservability). Resolved once per wiring;
// the hot path reads them with relaxed atomics.
std::atomic<obs::Counter*> g_tasks_total{nullptr};
std::atomic<obs::Gauge*> g_queue_depth{nullptr};
std::atomic<obs::TraceRecorder*> g_trace{nullptr};

void CountChunks(size_t n) {
  if (obs::Counter* c = g_tasks_total.load(std::memory_order_relaxed)) {
    c->Inc(n);
  }
}

void RecordQueueDepth(size_t depth) {
  if (obs::Gauge* g = g_queue_depth.load(std::memory_order_relaxed)) {
    g->Set(static_cast<double>(depth));
  }
}

}  // namespace

ThreadPool::ThreadPool(size_t threads) : threads_(threads == 0 ? 1 : threads) {
  workers_.reserve(threads_ - 1);
  for (size_t i = 0; i + 1 < threads_; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

size_t ThreadPool::NumChunks(size_t begin, size_t end, size_t grain) {
  if (end <= begin) return 0;
  const size_t n = end - begin;
  const size_t g = grain == 0 ? 1 : grain;
  return (n + g - 1) / g;
}

void ThreadPool::RunShare(Region* region, size_t share) {
  const size_t grain = region->grain;
  for (size_t c = share; c < region->chunks; c += region->shares) {
    {
      std::lock_guard<std::mutex> lock(region->mu);
      if (region->failed) break;
    }
    const size_t b = region->begin + c * grain;
    const size_t e = std::min(region->end, b + grain);
    try {
      (*region->fn)(b, e, c);
    } catch (...) {
      std::lock_guard<std::mutex> lock(region->mu);
      if (!region->failed) {
        region->failed = true;
        region->error = std::current_exception();
      }
      break;
    }
  }
  {
    // Notify while still holding the lock: the Region lives on the
    // caller's stack, and the caller destroys it as soon as its wait sees
    // pending == 0. Signaling after unlock would let that destruction
    // race the tail of notify_all (TSan flags the cond destroy).
    std::lock_guard<std::mutex> lock(region->mu);
    if (--region->pending == 0) region->done_cv.notify_all();
  }
}

void ThreadPool::WorkerLoop() {
  tl_in_region = true;  // anything a worker runs is inside a region
  for (;;) {
    std::pair<Region*, size_t> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ and drained
      task = queue_.front();
      queue_.pop_front();
      RecordQueueDepth(queue_.size());
    }
    RunShare(task.first, task.second);
  }
}

void ThreadPool::Execute(size_t begin, size_t end, size_t grain,
                         const std::function<void(size_t, size_t, size_t)>& fn) {
  const size_t g = grain == 0 ? 1 : grain;
  const size_t chunks = NumChunks(begin, end, g);
  if (chunks == 0) return;
  CountChunks(chunks);

  if (threads_ == 1 || chunks == 1 || tl_in_region) {
    // Inline path: same chunks, ascending order, caller's thread.
    for (size_t c = 0; c < chunks; ++c) {
      const size_t b = begin + c * g;
      const size_t e = std::min(end, b + g);
      fn(b, e, c);
    }
    return;
  }

  Region region;
  region.fn = &fn;
  region.begin = begin;
  region.end = end;
  region.grain = g;
  region.chunks = chunks;
  region.shares = std::min(threads_, chunks);
  region.pending = region.shares;

  {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t s = 1; s < region.shares; ++s) {
      queue_.emplace_back(&region, s);
    }
    RecordQueueDepth(queue_.size());
  }
  cv_.notify_all();

  tl_in_region = true;
  RunShare(&region, 0);
  tl_in_region = false;

  {
    std::unique_lock<std::mutex> lock(region.mu);
    region.done_cv.wait(lock, [&region] { return region.pending == 0; });
    if (region.error) std::rethrow_exception(region.error);
  }
}

namespace {

// The global pool is owned by GlobalSlot() and published through g_pool:
// a lookup is one acquire load, and only first-use creation and
// SetGlobalThreads take g_pool_mu.
std::mutex g_pool_mu;
std::atomic<ThreadPool*> g_pool{nullptr};
std::unique_ptr<ThreadPool>& GlobalSlot() {
  static std::unique_ptr<ThreadPool> pool;
  return pool;
}

}  // namespace

size_t DefaultThreads() {
  size_t n = 0;
  if (const char* env = std::getenv("QPP_THREADS")) {
    char* end = nullptr;
    const unsigned long v = std::strtoul(env, &end, 10);
    if (end != env && *end == '\0') n = static_cast<size_t>(v);
  }
  if (n == 0) n = std::thread::hardware_concurrency();
  if (n == 0) n = 1;
  return std::min<size_t>(n, 1024);
}

ThreadPool& GlobalPool() {
  if (ThreadPool* pool = g_pool.load(std::memory_order_acquire)) {
    return *pool;
  }
  std::lock_guard<std::mutex> lock(g_pool_mu);
  std::unique_ptr<ThreadPool>& slot = GlobalSlot();
  if (!slot) {
    slot = std::make_unique<ThreadPool>(DefaultThreads());
    g_pool.store(slot.get(), std::memory_order_release);
  }
  return *slot;
}

size_t EffectiveThreads() { return GlobalPool().threads(); }

void SetGlobalThreads(size_t n) {
  QPP_CHECK_MSG(n >= 1, "SetGlobalThreads needs n >= 1");
  std::lock_guard<std::mutex> lock(g_pool_mu);
  std::unique_ptr<ThreadPool>& slot = GlobalSlot();
  g_pool.store(nullptr, std::memory_order_release);
  slot.reset();  // joins the old workers
  slot = std::make_unique<ThreadPool>(std::min<size_t>(n, 1024));
  g_pool.store(slot.get(), std::memory_order_release);
}

void SetObservability(obs::MetricsRegistry* registry,
                      obs::TraceRecorder* trace) {
  if (registry != nullptr) {
    g_tasks_total.store(registry->GetCounter("qpp_par_tasks_total"),
                        std::memory_order_relaxed);
    g_queue_depth.store(registry->GetGauge("qpp_par_queue_depth"),
                        std::memory_order_relaxed);
  } else {
    g_tasks_total.store(nullptr, std::memory_order_relaxed);
    g_queue_depth.store(nullptr, std::memory_order_relaxed);
  }
  g_trace.store(trace, std::memory_order_relaxed);
}

obs::TraceRecorder* ObservedTrace() {
  return g_trace.load(std::memory_order_relaxed);
}

}  // namespace qpp::par
